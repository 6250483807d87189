package machine

import (
	"fmt"
	"sync"

	"hugeomp/internal/cache"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/tlb"
	"hugeomp/internal/units"
)

// Machine is an instantiated platform running one simulated process.
type Machine struct {
	Model   Model
	Sharing SharingMode

	pt  *pagetable.Table
	bus *cache.Bus

	contexts []*Context
}

// New instantiates model with the default partitioned sharing mode.
func New(model Model) *Machine {
	return &Machine{Model: model, Sharing: SharePartition}
}

// AttachProcess connects the process page table that every context
// translates through.
func (m *Machine) AttachProcess(pt *pagetable.Table) { m.pt = pt }

// PageTable returns the attached process page table.
func (m *Machine) PageTable() *pagetable.Table { return m.pt }

// Bus returns the snoop bus, if the machine was configured coherent.
func (m *Machine) Bus() *cache.Bus { return m.bus }

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

// Configure builds the hardware contexts for an n-thread run. Context
// resources (TLBs, caches) are sized according to how many co-scheduled
// contexts share them under the machine's SharingMode. Configure must be
// called after AttachProcess.
func (m *Machine) Configure(n int) ([]*Context, error) {
	if m.pt == nil {
		return nil, fmt.Errorf("machine: Configure before AttachProcess")
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

	m.bus = nil
	if m.Model.Coherent {
		m.bus = cache.NewBus()
	}

	m.contexts = make([]*Context, 0, n)
	switch m.Sharing {
	case SharePartition:
		for id, s := range slots {
			coreShare := perCore[coreKey(s)]
			l2Share := perL2[l2Key(s)]
			itlbSpec, dtlbSpec := m.Model.ITLB, m.Model.DTLB
			l1cfg, l2cfg := m.Model.L1D, m.Model.L2
			if coreShare > 1 {
				itlbSpec = itlbSpec.Halve()
				dtlbSpec = dtlbSpec.Halve()
				l1cfg.SizeBytes /= int64(coreShare)
			}
			if l2Share > 1 {
				l2cfg.SizeBytes /= int64(l2Share)
			}
			ctx := m.newContext(id, s, itlbSpec, dtlbSpec, l1cfg, l2cfg, coreShare > 1)
			m.contexts = append(m.contexts, ctx)
		}
	case ShareTrue:
		// Co-located contexts share the same structures behind locks.
		type coreRes struct {
			itlb, dtlb *tlb.Hierarchy
			l1         *cache.Cache
			mu         *sync.Mutex
		}
		type l2Res struct {
			l2 *cache.Cache
			mu *sync.Mutex
		}
		cores := map[int]*coreRes{}
		l2s := map[int]*l2Res{}
		for id, s := range slots {
			ck, lk := coreKey(s), l2Key(s)
			cr := cores[ck]
			if cr == nil {
				cr = &coreRes{
					itlb: tlb.NewHierarchy(m.Model.ITLB),
					dtlb: tlb.NewHierarchy(m.Model.DTLB),
					l1:   cache.New(m.Model.L1D),
					mu:   &sync.Mutex{},
				}
				cores[ck] = cr
			}
			lr := l2s[lk]
			if lr == nil {
				lr = &l2Res{l2: cache.New(m.Model.L2), mu: &sync.Mutex{}}
				if m.bus != nil {
					m.bus.Attach(lr.l2)
				}
				l2s[lk] = lr
			}
			ctx := &Context{
				ID: id, Chip: s.chip, Core: s.core, Thread: s.thread,
				machine: m, pt: m.pt,
				itlb: cr.itlb, dtlb: cr.dtlb, l1: cr.l1, l2: lr.l2,
				costs:      &m.Model.Costs,
				hasSibling: perCore[ck] > 1,
				xlat:       make([]xlatSlot, xlatSlots),
			}
			if perCore[ck] > 1 {
				ctx.coreMu = cr.mu
			}
			if perL2[lk] > 1 {
				ctx.l2Mu = lr.mu
			}
			ctx.smtFlush = m.Model.SMT == SMTFlushOnSwitch && ctx.hasSibling
			m.contexts = append(m.contexts, ctx)
		}
	}
	return m.contexts, nil
}

func (m *Machine) newContext(id int, s slot, itlbSpec, dtlbSpec tlb.Spec,
	l1cfg, l2cfg cache.Config, hasSibling bool) *Context {
	l2 := cache.New(l2cfg)
	if m.bus != nil {
		m.bus.Attach(l2)
	}
	ctx := &Context{
		ID: id, Chip: s.chip, Core: s.core, Thread: s.thread,
		machine: m, pt: m.pt,
		itlb:       tlb.NewHierarchy(itlbSpec),
		dtlb:       tlb.NewHierarchy(dtlbSpec),
		l1:         cache.New(l1cfg),
		l2:         l2,
		costs:      &m.Model.Costs,
		hasSibling: hasSibling,
		xlat:       make([]xlatSlot, xlatSlots),
	}
	ctx.smtFlush = m.Model.SMT == SMTFlushOnSwitch && hasSibling
	return ctx
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
