package npb

import "hugeomp/internal/units"

// TemplateBytes estimates the resident host footprint of one warm template
// (npb.Warm) for class c: the snapshot pins the full shared region's backing
// arrays for the life of the template, plus page-table, cache and hugetlbfs
// metadata. The estimate is deliberately simple and slightly conservative —
// it prices admission and pool budgets, it does not account allocations.
func TemplateBytes(c Class) int64 {
	return sharedBytesFor(c) + 8*units.MB
}

// ForkBytes estimates the transient host footprint of one forked session for
// class c: kernels fork only their mutable arrays (roughly a quarter of the
// shared region; read-only statics such as CG's sparse matrix stay shared
// with the template) plus runtime metadata — the fork's copied page table
// (its PTE frames come to at most about 400 KB at class A), per-context TLBs
// and caches, profile counters. Like TemplateBytes, a deliberate estimate
// for budget charging, not an account.
func ForkBytes(c Class) int64 {
	return sharedBytesFor(c)/4 + 2*units.MB
}
