package main

import (
	"errors"
	"math"
	"testing"
)

func TestPercentileWithSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{0, 1, 99},
		{0.5, 50.5, 50},
		{0.9, 90.1, 10},
		{0.99, 99.01, 1},
		{1, 100, 0},
	} {
		got, beyond := percentile(xs, c.p)
		if math.Abs(got-c.want) > 1e-9 || beyond != c.beyond {
			t.Errorf("percentile(1..100, %v) = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	// Ties at the percentile are not beyond it.
	if got, beyond := percentile([]float64{1, 2, 2, 2, 3}, 0.5); got != 2 || beyond != 1 {
		t.Errorf("percentile with ties = %v, %d beyond; want 2, 1", got, beyond)
	}
	if got, beyond := percentile([]float64{7}, 0.99); got != 7 || beyond != 0 {
		t.Errorf("percentile of one sample = %v, %d beyond", got, beyond)
	}
	if got, _ := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 4}, 2},
		{[]float64{2, 8, 4}, 4},
		{[]float64{0.5}, 0.5},
	} {
		got, err := geomean(c.xs)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("geomean(%v) = %v, %v; want %v", c.xs, got, err, c.want)
		}
	}
	for _, xs := range [][]float64{{1, 0}, {2, -1}, {math.NaN()}} {
		if _, err := geomean(xs); !errors.Is(err, errNonPositive) {
			t.Errorf("geomean(%v) error = %v, want errNonPositive", xs, err)
		}
	}
	if _, err := geomean(nil); err == nil {
		t.Error("geomean of no values did not fail")
	}
}
