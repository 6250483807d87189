// Corpus for the ctxflow analyzer. The test configures RTType = "a.RT" and
// Packages = ["a"].
package a

type Context struct{}

// RT stands in for omp.RT.
type RT struct{}

func (rt *RT) Parallel(body func(c *Context))           {}
func (rt *RT) ParallelFor(n int, body func(lo, hi int)) {}
func (rt *RT) Checkpoint() error                        { return nil }

// --- negative controls ------------------------------------------------------

// The canonical Run loop: checkpoint at every iteration boundary.
func good(rt *RT, iters int) error {
	for it := 0; it < iters; it++ {
		if err := rt.Checkpoint(); err != nil {
			return err
		}
		rt.ParallelFor(100, func(lo, hi int) {})
	}
	return nil
}

// A loop with no region work needs no checkpoint.
func computeOnly(data []float64) float64 {
	s := 0.0
	for _, v := range data {
		s += v
	}
	return s
}

// Inner compute loops inside a worksharing body issue no regions themselves.
func worksharing(rt *RT, data []float64) {
	rt.ParallelFor(len(data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i] *= 2
		}
	})
}

// A checkpoint reached through a helper counts.
func pause(rt *RT) error { return rt.Checkpoint() }

func indirectCheckpoint(rt *RT, n int) {
	for i := 0; i < n; i++ {
		if err := pause(rt); err != nil {
			return
		}
		sweep(rt)
	}
}

// --- direct violation -------------------------------------------------------

func bad(rt *RT, iters int) {
	for it := 0; it < iters; it++ { // want `loop issues omp regions without reaching rt\.Checkpoint`
		rt.ParallelFor(100, func(lo, hi int) {})
	}
}

// --- regions issued two calls down ------------------------------------------

func sweep(rt *RT)  { rt.Parallel(func(c *Context) {}) }
func sweeps(rt *RT) { sweep(rt) }

func indirect(rt *RT, n int) {
	for i := 0; i < n; i++ { // want `without reaching rt\.Checkpoint.*call a\.sweeps.*call a\.sweep.*omp region Parallel`
		sweeps(rt)
	}
}

// --- nested loops are judged at their own level -------------------------------

// The outer loop's own level issues no regions; only the inner loop (which
// checkpoints) does, so neither is flagged.
func nestedOK(rt *RT, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rt.Checkpoint() != nil {
				return
			}
			sweep(rt)
		}
	}
}

// A checkpoint inside a nested loop does not bound the outer iteration: the
// inner loop is fine, the outer one is flagged for its own region call.
func nestedBad(rt *RT, n int) {
	for i := 0; i < n; i++ { // want `without reaching rt\.Checkpoint`
		sweep(rt)
		for j := 0; j < n; j++ {
			if rt.Checkpoint() != nil {
				return
			}
		}
	}
}

// --- annotations ------------------------------------------------------------

// A reasoned annotation suppresses the report.
func annotated(rt *RT, n int) {
	//simlint:nocheckpoint bounded level sweep; the caller checkpoints per V-cycle
	for i := 0; i < n; i++ {
		sweep(rt)
	}
}

// A reasonless annotation suppresses nothing: the loop stays flagged and the
// annotation itself is reported.
func reasonless(rt *RT, n int) {
	for i := 0; i < n; i++ { /* want `needs a reason` `without reaching rt\.Checkpoint` */ //simlint:nocheckpoint
		sweep(rt)
	}
}

// A stale annotation (the loop checkpoints) is reported for deletion.
func stale(rt *RT, n int) {
	for i := 0; i < n; i++ { /* want `stale //simlint:nocheckpoint` */ //simlint:nocheckpoint overcautious
		if rt.Checkpoint() != nil {
			return
		}
		sweep(rt)
	}
}
