package npb

import "hugeomp/internal/memo"

// RunKey returns the canonical content key of one simulated run,
// memo.MustKey("npb/run", kernel, cfg): the hex SHA-256 over the memo
// schema line, the JSON of the two strings and the JSON of cfg (Ctx, tagged
// json:"-", is never written). Every driver that shares results —
// cmd/sweep, cmd/simd via internal/simsrv, the bench harness — keys with
// this function, so a result computed by one process is addressable by all
// the others through a shared disk cache.
//
// A run with a fault plan is not content-addressable: faultinject.Plan has
// only unexported fields, so every armed plan would encode as {} and two
// different plans would share a key. RunKey panics on one. A non-finite
// Costs.ClockGHz panics too, as encoding/json refuses it.
func RunKey(kernel string, cfg RunConfig) string {
	if cfg.Fault != nil {
		panic("npb: RunKey of a run with a fault plan: the plan is not part of the key, so its result is not content-addressable")
	}
	return memo.MustKey("npb/run", kernel, cfg)
}
