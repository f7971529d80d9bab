package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the tail percentiles the benchmark may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90}

// beyond is the number of samples that lie above percentile pct of n
// samples, rounded to 1e-9 so that 100 − 99.9 counts as 0.1.
func beyond(n int, pct float64) float64 {
	return math.Round(float64(n)*(100-pct)/100*1e9) / 1e9
}

// highestPercentile returns the highest percentile of tailLadder that has at
// least ten of the n samples beyond it, and an error when even the lowest
// rung has fewer.
func highestPercentile(n int) (float64, error) {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%d samples: fewer than 10 beyond p%g", n, tailLadder[len(tailLadder)-1])
}

// checkPercentile reports an error unless pct is at or below the highest
// percentile of tailLadder with ten of the n samples beyond it, so a tail
// figure is never read off a handful of samples.
func checkPercentile(n int, pct float64) error {
	hp, err := highestPercentile(n)
	if err != nil {
		return err
	}
	if pct > hp {
		return fmt.Errorf("p%g of %d samples has %.1f beyond it, want at least 10 (highest allowed p%g)", pct, n, beyond(n, pct), hp)
	}
	return nil
}

// percentile returns the pct-th percentile of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := pct / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is the 50th percentile; xs is sorted in place.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean, or 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean returns the geometric mean of strictly positive values.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geometric mean of no values")
	}
	s := 0.0
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return 0, fmt.Errorf("geometric mean of non-positive or non-finite value %g", x)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// ratio returns num/den, or 0 when den is 0 (a layer that saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
