// Package machine models the two multi-core platforms of the paper's
// evaluation — a dual dual-core AMD Opteron 270 node and a dual dual-core
// Intel Xeon node with hyper-threading — as parameterised, deterministic,
// execution-driven processor models. Simulated OpenMP threads run on
// hardware contexts; every data access goes through the context's DTLB
// stack, page walker and cache hierarchy, and every event is counted
// exactly.
package machine

import (
	"hugeomp/internal/cache"
	"hugeomp/internal/tlb"
	"hugeomp/internal/units"
)

// SMTPolicy selects how a core runs two hardware threads.
type SMTPolicy uint8

const (
	// SMTNone: one thread per core (the Opteron).
	SMTNone SMTPolicy = iota
	// SMTFlushOnSwitch: the Xeon hyper-threading behaviour the paper blames
	// for poor 4→8-thread scaling — a memory load stall evicts the thread
	// context and flushes the pipeline.
	SMTFlushOnSwitch
	// SMTInterleave: Niagara-style fine-grain interleave (no flush penalty);
	// provided as an extension/ablation, not used by the paper's platforms.
	SMTInterleave
)

// String implements fmt.Stringer.
func (p SMTPolicy) String() string {
	switch p {
	case SMTFlushOnSwitch:
		return "flush-on-switch"
	case SMTInterleave:
		return "interleave"
	default:
		return "none"
	}
}

// SharingMode names how co-scheduled contexts see shared core/chip
// resources. Its one value, SharePartition, is what Configure builds:
// co-scheduled contexts statically partition shared structures ("the
// effective number of TLB entries could potentially be halved" — the paper,
// §3.2). The type stays only because npb.RunKey encodes every field of the
// run config, so dropping it would move every memo and golden key; it goes
// with the next memo.SchemaVersion bump.
type SharingMode uint8

// SharePartition is the only sharing mode (see SharingMode).
const SharePartition SharingMode = 0

// Costs is the cycle cost model. All values are in CPU cycles at ClockGHz.
type Costs struct {
	ClockGHz float64 // simulated core clock

	ExecCyc   uint64 // base cost of one data access instruction
	L1HitCyc  uint64 // L1D hit latency
	L2HitCyc  uint64 // L2 hit latency
	MemCyc    uint64 // memory access latency (demand miss)
	StreamCyc uint64 // memory cost of a prefetched sequential line: the
	// hardware stream prefetcher hides most of the latency of unit-stride
	// misses, but stops at every 4 KB boundary and never hides TLB walks
	TLBL2Cyc   uint64 // extra latency when L1 TLB misses but L2 TLB hits
	WalkRefCyc uint64 // per memory reference of a page walk (4 KB walk = 2 refs, 2 MB walk = 1)
	// C2CCyc was the cache-to-cache transfer of the removed coherent bus;
	// nothing charges it. It stays only because npb.RunKey encodes every
	// Model field, and goes with the next memo.SchemaVersion bump.
	C2CCyc       uint64
	FlushCyc     uint64 // pipeline flush on an SMT context switch
	FetchCyc     uint64 // charged per instruction-fetch block
	MsgCyc       uint64 // one shared-memory message (barrier/reduction transport)
	ForkCyc      uint64 // spawning the worker team for a parallel region
	AtomicCyc    uint64 // one atomic read-modify-write (dynamic-schedule chunk grab)
	SoftFaultCyc uint64 // kernel entry/exit + fill for a serviced page fault
}

// DefaultCosts returns the cost model shared by both platform models (the
// paper observes "the Intel and Opteron systems perform similarly on all
// five applications up to 4 threads", so a common baseline is appropriate).
func DefaultCosts() Costs {
	return Costs{
		ClockGHz:  2.0,
		ExecCyc:   1,
		L1HitCyc:  3,
		L2HitCyc:  14,
		MemCyc:    240,
		StreamCyc: 40,
		TLBL2Cyc:  8,
		// The paper's own estimate: "assuming an ITLB miss of 200 cycles"
		// (§4.3). A 4 KB walk is two memory references (200 cycles), a
		// 2 MB walk one (100 cycles).
		WalkRefCyc:   100,
		C2CCyc:       110,
		FlushCyc:     160,
		FetchCyc:     1,
		MsgCyc:       900,
		ForkCyc:      4000,
		AtomicCyc:    40,
		SoftFaultCyc: 2400,
	}
}

// Model describes one processor platform.
type Model struct {
	Name           string
	Chips          int
	CoresPerChip   int
	ThreadsPerCore int

	ITLB tlb.Spec
	DTLB tlb.Spec

	L1D       cache.Config // per core
	L2        cache.Config // per core, or per chip when L2PerChip
	L2PerChip bool         // Xeon: both cores of a chip share the L2

	SMT SMTPolicy
	// Coherent asked for the removed MESI snoop bus; Configure refuses a
	// model that sets it, so a model file saying "coherent": true fails
	// instead of being ignored. It stays only because npb.RunKey encodes
	// every Model field, and goes with the next memo.SchemaVersion bump.
	Coherent bool

	Costs Costs
}

// MaxThreads returns the number of hardware contexts.
func (m Model) MaxThreads() int { return m.Chips * m.CoresPerChip * m.ThreadsPerCore }

// Cores returns the number of physical cores.
func (m Model) Cores() int { return m.Chips * m.CoresPerChip }

// Opteron270 models the paper's dual dual-core AMD Opteron 270 platform:
// four cores, no SMT, a private 1 MB L2 per core (the hardware keeps them
// coherent by snooping; the model charges no coherence traffic), two-level
// DTLB whose L2 holds no 2 MB entries (so 2 MB TLB reach is only the 8 L1
// entries = 16 MB).
func Opteron270() Model {
	return Model{
		Name:           "Opteron270",
		Chips:          2,
		CoresPerChip:   2,
		ThreadsPerCore: 1,
		ITLB: tlb.Spec{
			Name: "opteron-itlb",
			L1: tlb.LevelSpec{
				E4K: tlb.Config{Entries: 32},
				E2M: tlb.Config{Entries: 8},
			},
		},
		DTLB: tlb.Spec{
			Name: "opteron-dtlb",
			L1: tlb.LevelSpec{
				E4K: tlb.Config{Entries: 32},
				E2M: tlb.Config{Entries: 8},
			},
			L2: tlb.LevelSpec{
				E4K: tlb.Config{Entries: 512, Ways: 4},
				// No large-page entries in the Opteron L2 DTLB.
			},
		},
		L1D:   cache.Config{SizeBytes: 64 * units.KB, Ways: 2},
		L2:    cache.Config{SizeBytes: 1 * units.MB, Ways: 16},
		SMT:   SMTNone,
		Costs: DefaultCosts(),
	}
}

// XeonHT models the paper's dual dual-core Intel Xeon platform with
// hyper-threading: four cores, two SMT threads per core sharing the DTLB and
// L1, a 2 MB L2 shared by the two cores of each chip, and the
// flush-pipeline-on-context-switch SMT implementation.
func XeonHT() Model {
	return Model{
		Name:           "XeonHT",
		Chips:          2,
		CoresPerChip:   2,
		ThreadsPerCore: 2,
		ITLB: tlb.Spec{
			Name: "xeon-itlb",
			L1: tlb.LevelSpec{
				E4K: tlb.Config{Entries: 128, Ways: 4},
				E2M: tlb.Config{Entries: 16},
			},
		},
		DTLB: tlb.Spec{
			Name: "xeon-dtlb",
			L1: tlb.LevelSpec{
				E4K: tlb.Config{Entries: 64, Ways: 4},
				E2M: tlb.Config{Entries: 32},
			},
			L2: tlb.LevelSpec{
				E4K: tlb.Config{Entries: 128, Ways: 4},
			},
		},
		L1D:       cache.Config{SizeBytes: 16 * units.KB, Ways: 8},
		L2:        cache.Config{SizeBytes: 2 * units.MB, Ways: 8},
		L2PerChip: true,
		SMT:       SMTFlushOnSwitch,
		Costs:     DefaultCosts(),
	}
}

// NiagaraT1 models the Sun Niagara the paper's background section describes
// as the other SMT design point ("implement different thread contexts and
// allow different stages of the pipeline to run different thread contexts.
// This potentially maximizes throughput, especially in the face of load
// stalls", §2.1): eight simple cores with four interleaved threads each, a
// shared L2, small per-core L1s and a modest unified DTLB. It is an
// extension model — the paper evaluates only the Opteron and Xeon — useful
// for contrasting interleaved SMT (no flush penalty) with the Xeon's
// flush-on-switch behaviour.
func NiagaraT1() Model {
	return Model{
		Name:           "NiagaraT1",
		Chips:          1,
		CoresPerChip:   8,
		ThreadsPerCore: 4,
		ITLB: tlb.Spec{
			Name: "niagara-itlb",
			L1: tlb.LevelSpec{
				E4K: tlb.Config{Entries: 64},
				E2M: tlb.Config{Entries: 8},
			},
		},
		DTLB: tlb.Spec{
			Name: "niagara-dtlb",
			L1: tlb.LevelSpec{
				E4K: tlb.Config{Entries: 64},
				E2M: tlb.Config{Entries: 8},
			},
		},
		L1D:       cache.Config{SizeBytes: 8 * units.KB, Ways: 4},
		L2:        cache.Config{SizeBytes: 3 * units.MB, Ways: 12},
		L2PerChip: true,
		SMT:       SMTInterleave,
		Costs:     niagaraCosts(),
	}
}

func niagaraCosts() Costs {
	c := DefaultCosts()
	c.ClockGHz = 1.2 // the T1 traded clock rate for thread count
	c.FlushCyc = 0   // interleaved threading: stalls overlap, no flush
	return c
}

// Models returns the two platform models of the paper's evaluation.
func Models() []Model { return []Model{Opteron270(), XeonHT()} }

// AllModels returns every built-in platform, including the NiagaraT1
// extension model.
func AllModels() []Model { return []Model{Opteron270(), XeonHT(), NiagaraT1()} }

// ModelByName looks up a platform model by name ("Opteron270", "XeonHT" or
// "NiagaraT1"), building only the model it returns.
func ModelByName(name string) (Model, bool) {
	switch name {
	case "Opteron270":
		return Opteron270(), true
	case "XeonHT":
		return XeonHT(), true
	case "NiagaraT1":
		return NiagaraT1(), true
	}
	return Model{}, false
}
