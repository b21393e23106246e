package dsp

import (
	"fmt"
	"math"
)

// Resample converts x from sample rate from to sample rate to using
// band-limited (windowed-sinc) interpolation. For integer upsampling
// factors a polyphase fast path is used. The result length is
// round(len(x) * to/from).
//
// Resampling is central to the attack pipeline: voice commands recorded at
// 48 kHz must be raised to 192 kHz before amplitude modulation can place
// their spectrum above 20 kHz (paper §3.2 "Upsampling").
func Resample(x []float64, from, to float64) []float64 {
	if from <= 0 || to <= 0 {
		panic(fmt.Sprintf("dsp: Resample rates must be positive (from=%v to=%v)", from, to))
	}
	if len(x) == 0 || from == to {
		out := make([]float64, len(x))
		copy(out, x)
		return out
	}
	ratio := to / from
	if f := math.Round(ratio); f >= 2 && math.Abs(ratio-f) < 1e-12 {
		return upsampleInt(x, int(f))
	}
	return resampleSinc(x, ratio, math.Min(1, ratio))
}

// upsampleInt raises the sample rate by an integer factor using zero
// stuffing followed by an interpolation low-pass filter, implemented in
// polyphase form so no multiplications are wasted on the stuffed zeros.
func upsampleInt(x []float64, factor int) []float64 {
	const tapsPerPhase = 24
	taps := tapsPerPhase*factor + 1
	// Cutoff at the original Nyquist, expressed in the *output* rate.
	lp := LowPassFIR(taps, 0.5/float64(factor)/1.03)
	h := lp.Taps
	// Polyphase decomposition: phase p holds h[p], h[p+factor], ...
	phases := make([][]float64, factor)
	for p := 0; p < factor; p++ {
		for i := p; i < len(h); i += factor {
			phases[p] = append(phases[p], h[i]*float64(factor))
		}
	}
	delay := (len(h) - 1) / 2
	out := make([]float64, len(x)*factor)
	for n := range out {
		// Output sample n corresponds to stuffed-stream index n; after
		// delay compensation the filter is centred at n+delay.
		m := n + delay
		p := m % factor
		base := m / factor
		var acc float64
		ph := phases[p]
		for k, c := range ph {
			idx := base - k
			if idx < 0 {
				break
			}
			if idx < len(x) {
				acc += c * x[idx]
			}
		}
		out[n] = acc
	}
	return out
}

// resampleSinc performs arbitrary-ratio band-limited interpolation with a
// Kaiser-windowed sinc kernel. cutoff (<=1) scales the kernel bandwidth
// relative to the smaller Nyquist, to avoid imaging/aliasing when
// downsampling.
func resampleSinc(x []float64, ratio, cutoff float64) []float64 {
	const halfTaps = 32
	const beta = 8.6
	outLen := int(math.Round(float64(len(x)) * ratio))
	out := make([]float64, outLen)
	den := besselI0(beta) // the Kaiser window's normaliser, constant per call
	for n := range out {
		center := float64(n) / ratio
		i0 := int(math.Floor(center)) - halfTaps + 1
		i1 := int(math.Floor(center)) + halfTaps
		var acc float64
		for i := i0; i <= i1; i++ {
			if i < 0 || i >= len(x) {
				continue
			}
			t := (float64(i) - center) * cutoff
			// Kaiser window evaluated at normalised offset.
			u := (float64(i) - center) / float64(halfTaps)
			if u < -1 || u > 1 {
				continue
			}
			w := besselI0(beta*math.Sqrt(1-u*u)) / den
			k := cutoff * sinc(t) * w
			acc += k * x[i]
		}
		out[n] = acc
	}
	return out
}

// Decimate reduces the sample rate by an integer factor, low-pass filtering
// first to prevent aliasing.
func Decimate(x []float64, factor int) []float64 {
	if factor < 1 {
		panic(fmt.Sprintf("dsp: Decimate factor must be >= 1, got %d", factor))
	}
	if factor == 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out
	}
	lp := LowPassFIR(24*factor+1, 0.5/float64(factor)/1.03)
	y := lp.Apply(x)
	out := make([]float64, (len(x)+factor-1)/factor)
	for i := range out {
		out[i] = y[i*factor]
	}
	return out
}
