// Package stats provides the small numeric helpers used by the experiment
// harness: speedups, improvement percentages, normalisation and simple
// aggregates.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs (0 for fewer than two
// samples).
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Speedup returns base/new (how many times faster new is than base); 0 when
// new is 0.
func Speedup(base, new float64) float64 {
	if new == 0 {
		return 0
	}
	return base / new
}

// ImprovementPct returns the relative improvement of new over base in
// percent: (base-new)/base · 100.
func ImprovementPct(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - new) / base
}

// Normalize divides each value by base (1.0 = equal to base); 0 when base
// is 0.
func Normalize(base float64, xs []float64) []float64 {
	out := make([]float64, len(xs))
	if base == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}

// Ratio returns a/b, or 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Factor returns new/base — the multiplicative cost of new relative to base
// (1.0 = unchanged, 9.7 = 9.7× more). 0 when base is 0.
func Factor(base, new uint64) float64 {
	if base == 0 {
		return 0
	}
	return float64(new) / float64(base)
}

// FormatFactor renders a Factor for degradation reports: "×9.7" for growth,
// "×0.83" for shrinkage, "×1.0" for unchanged, "—" for an undefined (zero
// base) factor.
func FormatFactor(f float64) string {
	if f == 0 {
		return "—"
	}
	if f >= 10 {
		return fmt.Sprintf("×%.0f", f)
	}
	if f >= 1 {
		return fmt.Sprintf("×%.1f", f)
	}
	return fmt.Sprintf("×%.2f", f)
}
