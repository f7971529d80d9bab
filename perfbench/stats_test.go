package main

import (
	"math"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
	} {
		got, err := highestPercentile(tc.n)
		if err != nil || got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v", tc.n, got, err, tc.want)
		}
	}
	if _, err := highestPercentile(99); err == nil {
		t.Error("highestPercentile(99): want an error, fewer than 10 samples lie beyond p90")
	}
}

func TestCheckPercentile(t *testing.T) {
	if err := checkPercentile(1000, 99); err != nil {
		t.Errorf("p99 of 1000: %v", err)
	}
	if err := checkPercentile(999, 99); err == nil {
		t.Error("p99 of 999: want an error")
	}
	if err := checkPercentile(100, 90); err != nil {
		t.Errorf("p90 of 100: %v", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 90); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6 (interpolated)", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one value = %v, want 7", got)
	}
}

func TestGeomean(t *testing.T) {
	got, err := geomean([]float64{1, 4})
	if err != nil || math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean(1, 4) = %v, %v; want 2", got, err)
	}
	got, err = geomean([]float64{0.5, 0.5, 0.5})
	if err != nil || math.Abs(got-0.5) > 1e-12 {
		t.Errorf("geomean(0.5 ×3) = %v, %v; want 0.5", got, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {-1}, {math.Inf(1)}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v): want an error", bad)
		}
	}
}
