package core

import "hugeomp/internal/machine"

// Fork returns an independent copy of the assembled system: physical memory,
// page table (every PGD entry and PTE frame copied), the hugetlbfs mount,
// both SCASH spaces and the THP manager, on a machine of the same model with
// no hardware contexts yet. The fork is the warm-construction replacement
// for NewSystem + kernel Setup: calling NewRT on it configures fresh (cold)
// hardware contexts exactly as a cold-built system would, so a forked run's
// counters are bit-identical to a cold run's while skipping the expensive
// address-space construction. A fork carries no hardware state: TLBs, caches
// and counters start cold in NewRT.
//
// Fault plans are not re-armed on the fork: injected faults fire during
// construction (hugetlbfs reservation, page mapping), which the fork skips
// by definition, so faulted configs must take the cold path. The THP
// shootdown hook and OnFault handlers are re-wired by NewRT as usual.
func (s *System) Fork() *System {
	pt := s.PT.Fork()
	ns := &System{
		Cfg:       s.Cfg,
		Phys:      s.Phys.Fork(),
		PT:        pt,
		Machine:   machine.New(s.Machine.Model),
		Degraded:  s.Degraded,
		codeAlloc: s.codeAlloc.Fork(),
		codeUsed:  s.codeUsed,
	}
	ns.Machine.AttachProcess(pt)
	ns.Cfg.Fault = nil
	if s.FS != nil {
		ns.FS = s.FS.Fork(ns.Phys)
	}
	if s.space4K != nil {
		ns.space4K = s.space4K.Fork()
	}
	if s.space2M != nil {
		ns.space2M = s.space2M.Fork()
	}
	if s.THP != nil {
		ns.THP = s.THP.Fork(ns.Phys, pt)
	}
	return ns
}

// Snapshot freezes a fully constructed (and typically sealed) system as an
// immutable template. The capture forks once, so the parent may keep running
// or be discarded; the frozen copy itself is never simulated on. Fork then
// stamps out independent systems, safely from concurrent goroutines (the
// sweep driver forks under internal/par): each subsystem's Fork copies its
// source under that source's own lock and writes nothing shared.
type Snapshot struct {
	frozen *System
}

// Snapshot captures the system. Call after Setup/Seal, before NewRT, at a
// quiescent point.
func (s *System) Snapshot() *Snapshot {
	return &Snapshot{frozen: s.Fork()}
}

// Fork stamps out an independent system from the frozen template.
func (sn *Snapshot) Fork() *System { return sn.frozen.Fork() }
