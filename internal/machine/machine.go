package machine

import (
	"fmt"

	"hugeomp/internal/cache"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/tlb"
	"hugeomp/internal/units"
)

// Machine is an instantiated platform running one simulated process.
type Machine struct {
	Model Model

	pt *pagetable.Table

	contexts []*Context
}

// New instantiates model.
func New(model Model) *Machine {
	return &Machine{Model: model}
}

// AttachProcess connects the process page table that every context
// translates through.
func (m *Machine) AttachProcess(pt *pagetable.Table) { m.pt = pt }

// PageTable returns the attached process page table.
func (m *Machine) PageTable() *pagetable.Table { return m.pt }

// Contexts returns the contexts built by the last Configure call.
func (m *Machine) Contexts() []*Context { return m.contexts }

// slot identifies one hardware thread.
type slot struct {
	chip, core, thread int
}

// placement enumerates hardware threads in the paper's scheduling order:
// "Single thread per core is used up to 4 threads. Two threads per core are
// used at eight threads" — i.e. fill one thread on every core (spreading
// across chips first) before using SMT siblings.
func (m *Machine) placement(n int) ([]slot, error) {
	max := m.Model.MaxThreads()
	if n < 1 || n > max {
		return nil, fmt.Errorf("machine: %d threads out of range 1..%d on %s", n, max, m.Model.Name)
	}
	var slots []slot
	for t := 0; t < m.Model.ThreadsPerCore; t++ {
		for c := 0; c < m.Model.CoresPerChip; c++ {
			for ch := 0; ch < m.Model.Chips; ch++ {
				slots = append(slots, slot{chip: ch, core: c, thread: t})
			}
		}
	}
	return slots[:n], nil
}

// Configure builds the hardware contexts for an n-thread run. Every context
// owns private TLBs and caches: co-scheduled contexts statically partition
// the structures they share in hardware ("the effective number of TLB
// entries could potentially be halved" — the paper, §3.2), the SMT siblings
// of a core slicing its TLBs (tlb.Spec.Partition) and its L1 by their
// count, the sharers of a per-chip L2 slicing it (cache.Config.Partition).
// Configure must be called after
// AttachProcess; it reports a coherent model, or a geometry that cannot be
// built, as an error.
func (m *Machine) Configure(n int) ([]*Context, error) {
	if m.pt == nil {
		return nil, fmt.Errorf("machine: Configure before AttachProcess")
	}
	if m.Model.Coherent {
		return nil, fmt.Errorf("machine: %s: coherent models are not supported (every context owns private caches)", m.Model.Name)
	}
	slots, err := m.placement(n)
	if err != nil {
		return nil, err
	}

	// Count active contexts per core and per L2 domain.
	coreKey := func(s slot) int { return s.chip*m.Model.CoresPerChip + s.core }
	l2Key := func(s slot) int {
		if m.Model.L2PerChip {
			return s.chip
		}
		return coreKey(s)
	}
	perCore := map[int]int{}
	perL2 := map[int]int{}
	for _, s := range slots {
		perCore[coreKey(s)]++
		perL2[l2Key(s)]++
	}

	ctxs := make([]*Context, 0, n)
	for id, s := range slots {
		coreShare := perCore[coreKey(s)]
		ctx := &Context{
			ID: id, Chip: s.chip, Core: s.core, Thread: s.thread,
			machine: m, pt: m.pt,
			costs:      &m.Model.Costs,
			hasSibling: coreShare > 1,
			smtFlush:   m.Model.SMT == SMTFlushOnSwitch && coreShare > 1,
			xlat:       make([]xlatSlot, xlatSlots),
		}
		if ctx.itlb, err = tlb.NewHierarchy(m.Model.ITLB.Partition(coreShare)); err != nil {
			return nil, fmt.Errorf("machine: %s ITLB: %w", m.Model.Name, err)
		}
		if ctx.dtlb, err = tlb.NewHierarchy(m.Model.DTLB.Partition(coreShare)); err != nil {
			return nil, fmt.Errorf("machine: %s DTLB: %w", m.Model.Name, err)
		}
		if ctx.l1, err = cache.New(m.Model.L1D.Partition(coreShare)); err != nil {
			return nil, fmt.Errorf("machine: %s L1D: %w", m.Model.Name, err)
		}
		if ctx.l2, err = cache.New(m.Model.L2.Partition(perL2[l2Key(s)])); err != nil {
			return nil, fmt.Errorf("machine: %s L2: %w", m.Model.Name, err)
		}
		ctxs = append(ctxs, ctx)
	}
	m.contexts = ctxs
	return ctxs, nil
}

// CoreOf returns a stable key for the physical core of ctx, used by the
// runtime to aggregate per-core busy time (SMT siblings serialise).
func (m *Machine) CoreOf(c *Context) int { return c.Chip*m.Model.CoresPerChip + c.Core }

// Seconds converts cycles to simulated seconds at the model's clock.
func (m *Machine) Seconds(cyc uint64) float64 {
	return float64(cyc) / (m.Model.Costs.ClockGHz * 1e9)
}

// TLBReach reports the data-TLB coverage of the model for the given page
// size in bytes (paper Table 1's coverage rows).
func (m *Machine) TLBReach(size units.PageSize) int64 {
	return m.Model.DTLB.Coverage(size)
}
