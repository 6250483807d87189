package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
}

func TestStddev(t *testing.T) {
	if Stddev([]float64{5}) != 0 {
		t.Error("single-sample stddev")
	}
	got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.138089935299395) > 1e-12 {
		t.Errorf("stddev = %v", got)
	}
}

func TestSpeedupImprovement(t *testing.T) {
	if Speedup(10, 5) != 2 {
		t.Error("speedup")
	}
	if Speedup(10, 0) != 0 {
		t.Error("speedup by zero")
	}
	if ImprovementPct(100, 75) != 25 {
		t.Error("improvement")
	}
	if ImprovementPct(0, 5) != 0 {
		t.Error("improvement base zero")
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize(4, []float64{4, 2, 8})
	want := []float64{1, 0.5, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("normalize[%d] = %v", i, got[i])
		}
	}
	if z := Normalize(0, []float64{1})[0]; z != 0 {
		t.Error("normalize by zero")
	}
}

// Property: improvement and speedup agree: speedup s corresponds to
// improvement (1 - 1/s)·100.
func TestSpeedupImprovementConsistency(t *testing.T) {
	f := func(baseRaw, newRaw uint16) bool {
		base := float64(baseRaw) + 1
		new := float64(newRaw) + 1
		s := Speedup(base, new)
		imp := ImprovementPct(base, new)
		return math.Abs(imp-100*(1-1/s)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
