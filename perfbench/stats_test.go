package main

import (
	"math"
	"testing"

	"inaudible/internal/telemetry"
)

func TestQuantileFromSamples(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {0.99, 4.96}, {1, 5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("no samples: got %v, want NaN", got)
	}
	// A tail quantile of raw samples moves with every sample, unlike a
	// geometric-bucket estimate that sticks to a bucket bound.
	a := []float64{10, 20, 30, 87.8, 90}
	b := []float64{10, 20, 30, 87.8, 95}
	if quantile(a, 0.99) == quantile(b, 0.99) {
		t.Error("p99 did not follow the largest sample")
	}
}

func TestHistQuantileOfDelta(t *testing.T) {
	h := telemetry.NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{3, 3, 3} {
		h.Observe(v)
	}
	before := h.Dump()
	for _, v := range []float64{1, 5, 6, 7} {
		h.Observe(v)
	}
	d := histDelta(before, h.Dump())
	if d.Count != 4 {
		t.Fatalf("delta count %d, want 4", d.Count)
	}
	if got := histQuantile(d, 0.25); got != 1 {
		t.Errorf("first-bucket quantile %v, want its bound 1", got)
	}
	if got := histQuantile(d, 1); got != 8 {
		t.Errorf("max quantile %v, want 8", got)
	}
	if got := histQuantile(d, 0.5); got <= 4 || got > 8 {
		t.Errorf("median %v outside the (4, 8] bucket that holds it", got)
	}
}
