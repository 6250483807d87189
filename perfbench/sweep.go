package main

import (
	"math"
	"time"

	"hugeomp/internal/core"
	"hugeomp/internal/npb"
)

// sweepPassSeconds is one class-S Figure 4 pass (70 cold cells) on the
// reference host, a 2-vCPU Xeon; -seconds picks the number of passes.
const sweepPassSeconds = 9.0

func newSweep(o options) (*workload, error) {
	passes := max(1, int(math.Round(listSeconds(o)/sweepPassSeconds)))
	ops, err := sweepOps(o.seed, passes)
	if err != nil {
		return nil, err
	}
	w := &workload{clients: 1, ops: ops}
	// Warm-up: one cold cell per kernel — the same cells for every seed, so
	// setup_s does not move with the shuffle — bringing code, heap and GC
	// pacer to their sweep steady state before the first timed cell.
	var warm []*op
	for _, o := range ops[:len(ops)/passes] {
		if o.Cfg.Model.Name == "Opteron270" && o.Cfg.Policy == core.Policy2M && o.Cfg.Threads == 4 {
			warm = append(warm, o)
		}
	}
	w.setup = func() (*session, error) {
		for _, o := range warm {
			if _, err := runCold(o); err != nil {
				return nil, err
			}
		}
		return &session{close: func() {}}, nil
	}
	w.exec = func(_ *session, g *gate, sp *spans, cov *coverage) func(*op) (time.Duration, error) {
		return func(o *op) (time.Duration, error) {
			t := time.Now()
			var (
				res     npb.Result
				covered time.Duration
				err     error
			)
			if sp == nil {
				res, err = runCold(o)
			} else {
				res, covered, err = coldSplit(o, sp)
			}
			lat := time.Since(t)
			cov.op(lat, covered)
			if err != nil {
				return lat, err
			}
			d, err := digestResult(res)
			if err != nil {
				return lat, err
			}
			g.record(o, d)
			g.noteCounts(o.Key, countsOf(res))
			return lat, nil
		}
	}
	w.probe = func(g *gate, sp *spans) error { return probe(o.dir, sampleShapes(ops, 1), g, sp) }
	return w, nil
}

// runCold is one cold cell: npb.Run builds the system, sets the kernel up,
// runs and verifies it.
func runCold(o *op) (npb.Result, error) {
	k, err := npb.New(o.Kernel)
	if err != nil {
		return npb.Result{}, err
	}
	return npb.Run(k, o.Cfg)
}
