package main

import (
	"math"
	"sort"

	"inaudible/internal/telemetry"
)

// quantile returns the q-quantile (q in [0, 1]) of the raw samples,
// interpolating linearly between order statistics (the "type 7"
// estimator of R and NumPy). It sorts a copy; NaN for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// histDelta is the observations a server histogram gained between two
// dumps of it; the counts are per bucket, the last one the overflow.
func histDelta(before, after telemetry.HistogramDump) telemetry.HistogramDump {
	d := telemetry.HistogramDump{Bounds: after.Bounds, Counts: make([]uint64, len(after.Counts))}
	for i, c := range after.Counts {
		if i < len(before.Counts) {
			c -= before.Counts[i]
		}
		d.Counts[i] = c
		d.Count += c
	}
	return d
}

// histQuantile estimates the q-quantile of a bucketed histogram by
// linear interpolation inside the covering bucket. The first bucket
// reports its bound and the overflow bucket the last bound.
// The server's own instruments are bucketed, so per-layer numbers read
// from its registry carry the bucket resolution; the end-to-end
// latencies never go through this.
func histQuantile(d telemetry.HistogramDump, q float64) float64 {
	if d.Count == 0 {
		return 0
	}
	rank := q * float64(d.Count)
	var cum float64
	for i, c := range d.Counts {
		fc := float64(c)
		if c > 0 && cum+fc >= rank {
			if i >= len(d.Bounds) {
				return d.Bounds[len(d.Bounds)-1]
			}
			if i == 0 {
				return d.Bounds[0]
			}
			lo := d.Bounds[i-1]
			return lo + (d.Bounds[i]-lo)*(rank-cum)/fc
		}
		cum += fc
	}
	return d.Bounds[len(d.Bounds)-1]
}
