package determinism_test

import (
	"testing"

	"hugeomp/internal/lint/analysistest"
	"hugeomp/internal/lint/determinism"
)

// configure points the analyzer at the test corpora and restores the
// production settings when the test ends.
func configure(t *testing.T) {
	t.Helper()
	pkgs, sinkTypes, sinkFuncs := determinism.Packages, determinism.SinkTypes, determinism.SinkFuncs
	t.Cleanup(func() {
		determinism.Packages, determinism.SinkTypes, determinism.SinkFuncs = pkgs, sinkTypes, sinkFuncs
	})
	determinism.Packages = []string{"a", "taint"}
	determinism.SinkTypes = "Counters"
	determinism.SinkFuncs = "taint.Key"
}

func TestDeterminism(t *testing.T) {
	configure(t)

	// Corpus "a" holds one true positive and one true negative per direct
	// rule.
	analysistest.Run(t, analysistest.TestData(), determinism.Analyzer, "a")

	// A package outside the simulator set is exempt even though it reads
	// the wall clock (the bench harness does, on purpose).
	analysistest.Run(t, analysistest.TestData(), determinism.Analyzer, "outofscope")
}

// TestDetTaint runs corpus "taint": nondeterministic values laundered
// through assignments, calls and returns into a sink.
func TestDetTaint(t *testing.T) {
	configure(t)
	analysistest.Run(t, analysistest.TestData(), determinism.Analyzer, "taint")
}
