package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// This file holds the multirate streaming kernels: a direct-form FIR
// that computes only the outputs it keeps, and an overlap-save complex
// filter whose spectrum is folded so that one short inverse transform
// yields its output at a fraction of the input rate. Both are
// delay-compensated like FIR.Apply, bounded in memory, allocation-free
// after warm-up, and short-circuit windows whose inputs are exactly
// zero (the output is then exactly zero, as the arithmetic would give).

// kaiserLowPassFIR designs a linear-phase low-pass filter by the Kaiser
// window method. pass and stop are the normalised passband and stopband
// edges (cycles/sample, 0 < pass < stop < 0.5) and atten is the stopband
// attenuation in dB. Kaiser's formulas pick the length (forced odd) and
// the window shape, so the filter is as short as the transition band
// and the attenuation allow — what an anti-alias stage wants, since its
// cost is linear in taps. The response is normalised to unity DC gain.
func kaiserLowPassFIR(pass, stop, atten float64) *FIR {
	validateFIR(3, pass, stop)
	if pass >= stop {
		panic(fmt.Sprintf("dsp: kaiserLowPassFIR pass %v >= stop %v", pass, stop))
	}
	taps := int(math.Ceil((atten-8)/(2.285*2*math.Pi*(stop-pass)))) + 1
	if taps < 3 {
		taps = 3
	}
	if taps%2 == 0 {
		taps++
	}
	var beta float64
	switch {
	case atten > 50:
		beta = 0.1102 * (atten - 8.7)
	case atten >= 21:
		beta = 0.5842*math.Pow(atten-21, 0.4) + 0.07886*(atten-21)
	}
	w := Kaiser(taps, beta)
	fc := (pass + stop) / 2
	mid := float64(taps-1) / 2
	h := make([]float64, taps)
	var sum float64
	for i := range h {
		h[i] = 2 * fc * sinc(2*fc*(float64(i)-mid)) * w[i]
		sum += h[i]
	}
	for i := range h {
		h[i] /= sum
	}
	return &FIR{Taps: h}
}

// DecimatingFIR applies an FIR filter to an unbounded sample stream and
// keeps only every factor-th delay-compensated output, computing nothing
// for the outputs it drops: each kept output is one direct-form dot
// product over the last len(taps) inputs, with no FFT. After Flush the
// concatenated output equals FIR.Apply on the concatenated input sampled
// at indices 0, factor, 2*factor, ... (up to summation order), so a
// stream of n samples yields ceil(n/factor) outputs. Factor 1 makes it a
// plain streaming direct-form FIR, the cheap choice for short filters at
// low rates.
//
// A DecimatingFIR is single-session state and not safe for concurrent
// use; Reset it to serve a new session.
type DecimatingFIR struct {
	rev    []float64 // taps reversed, so a window dots straight against it
	factor int
	delay  int       // group delay (taps-1)/2
	buf    []float64 // inputs from absolute index base on; fixed capacity
	base   int       // absolute input index of buf[0] (negative: zero history)
	next   int       // absolute index of the newest input of the next kept output's window
	lastNZ int       // absolute index of the last nonzero input, -1 if none
	zeros  []float64 // flush padding, length delay
	out    []float64 // returned output staging, reused across calls

	flushed bool
}

// NewDecimatingFIR wraps f for streaming application, keeping one output
// in factor (>= 1).
func NewDecimatingFIR(f *FIR, factor int) *DecimatingFIR {
	taps := len(f.Taps)
	if taps < 1 {
		panic("dsp: NewDecimatingFIR needs a non-empty filter")
	}
	if factor < 1 {
		panic(fmt.Sprintf("dsp: NewDecimatingFIR factor %d < 1", factor))
	}
	d := &DecimatingFIR{
		rev:    make([]float64, taps),
		factor: factor,
		delay:  (taps - 1) / 2,
		// Slack past the taps-1 history keeps compaction (a copy of at
		// most taps-1 samples) rare.
		buf: make([]float64, 0, 4*taps+1024),
	}
	for i, h := range f.Taps {
		d.rev[taps-1-i] = h
	}
	d.zeros = make([]float64, d.delay)
	d.Reset()
	return d
}

// Push consumes x and returns the kept outputs that became available.
// The returned slice is reused by the next Push/Flush call — consume or
// copy it before pushing again. After warm-up Push does not allocate.
func (d *DecimatingFIR) Push(x []float64) []float64 {
	if d.flushed {
		panic("dsp: DecimatingFIR.Push after Flush (Reset first)")
	}
	d.out = d.out[:0]
	taps := len(d.rev)
	for len(x) > 0 {
		if len(d.buf) == cap(d.buf) {
			d.compact()
		}
		take := cap(d.buf) - len(d.buf)
		if take > len(x) {
			take = len(x)
		}
		start := d.base + len(d.buf)
		for i := take - 1; i >= 0; i-- {
			if x[i] != 0 {
				d.lastNZ = start + i
				break
			}
		}
		d.buf = append(d.buf, x[:take]...)
		x = x[take:]
		for end := start + take; d.next < end; d.next += d.factor {
			lo := d.next - taps + 1
			if d.lastNZ < lo {
				d.out = append(d.out, 0)
				continue
			}
			d.out = append(d.out, dot(d.rev, d.buf[lo-d.base:]))
		}
	}
	return d.out
}

// compact drops the inputs no future output's window reaches. After the
// emit loop next >= base+len(buf), so at most taps-1 inputs remain.
func (d *DecimatingFIR) compact() {
	keep := d.next - len(d.rev) + 1 - d.base
	if keep > len(d.buf) {
		keep = len(d.buf)
	}
	n := copy(d.buf, d.buf[keep:])
	d.buf = d.buf[:n]
	d.base += keep
}

// Flush drains the filter: it pushes the group delay's worth of zeros so
// every kept output aligned with a pushed sample is emitted. The
// returned slice is reused like Push's. After Flush only Reset may be
// called.
func (d *DecimatingFIR) Flush() []float64 {
	if d.flushed {
		panic("dsp: DecimatingFIR.Flush called twice")
	}
	out := d.Push(d.zeros)
	d.flushed = true
	return out
}

// Reset returns the filter to its initial state for a new session,
// keeping its buffers.
func (d *DecimatingFIR) Reset() {
	hist := len(d.rev) - 1
	d.buf = d.buf[:hist]
	for i := range d.buf {
		d.buf[i] = 0
	}
	d.base = -hist
	d.next = d.delay
	d.lastNZ = -1
	d.out = d.out[:0]
	d.flushed = false
}

// dot returns sum(a[i]*b[i]) over len(a) with four independent
// accumulators, which lets the loop pipeline instead of waiting on one
// running sum.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// AnalyticDecimator filters a real stream with a complex FIR kernel and
// keeps every factor-th delay-compensated output: kept output i (i = 0,
// factor, 2*factor, ...) is sum_t kernel[t]*x[i+delay-t], the full-rate
// complex filter sampled every factor samples. With the kernel
// f + j*(hilbert ∗ f) the outputs are the analytic signal of f's band at
// rate/factor.
//
// Each overlap-save segment costs one real forward transform of the
// window, a product against the cached kernel spectrum extended to all
// n bins by Hermitian symmetry, a fold of those n bins into n/factor
// (sampling in time is aliasing in frequency), and one n/factor-point
// complex inverse transform that yields exactly the kept outputs. The
// kernel spectrum is pre-rotated so the kept positions land on the
// folded transform's grid. factor must be a power of two.
//
// An AnalyticDecimator is single-session state and not safe for
// concurrent use; Reset it to serve a new session.
type AnalyticDecimator struct {
	taps   int // kernel length
	delay  int // (taps-1)/2
	factor int
	block  int // fresh samples per segment, a multiple of factor
	n      int // forward transform length, a power of two
	rot    int // kept positions within a segment are rot + factor*j

	plan  *RFFTPlan
	inv   *fftPlan     // n/factor-point complex plan
	kspec []complex128 // rotated, 1/factor-scaled kernel spectrum, n bins

	seg     []float64    // [overlap (taps-1) | fresh (block) | unused zeros]
	fill    int          // staged fresh samples
	base    int          // absolute index of the segment's first fresh sample
	spec    []complex128 // one-sided window spectrum, n/2+1
	scratch []complex128 // half-length FFT workspace, n/2
	fold    []complex128 // folded spectrum, then the kept outputs, n/factor
	zeros   []float64    // flush padding, length delay
	out     []complex128 // returned output staging, reused across calls
	liveNZ  bool         // some sample of the current window is nonzero
	flushed bool
}

// NewAnalyticDecimator prepares a streaming complex filter. blockHint is
// the preferred number of fresh samples per segment; the actual block is
// the largest multiple of factor that fits the power-of-two transform
// covering blockHint+len(kernel)-1 samples.
func NewAnalyticDecimator(kernel []complex128, factor, blockHint int) *AnalyticDecimator {
	taps := len(kernel)
	if taps < 1 {
		panic("dsp: NewAnalyticDecimator needs a non-empty kernel")
	}
	if factor < 1 || !IsPowerOfTwo(factor) {
		panic(fmt.Sprintf("dsp: NewAnalyticDecimator factor %d is not a power of two", factor))
	}
	if blockHint < factor {
		blockHint = factor
	}
	// n >= blockHint+taps-1 >= factor+taps-1 leaves room for at least
	// one factor-aligned block.
	n := NextPowerOfTwo(blockHint + taps - 1)
	if n < 4 {
		n = 4
	}
	m := n / factor
	d := &AnalyticDecimator{
		taps:    taps,
		delay:   (taps - 1) / 2,
		factor:  factor,
		block:   (n - taps + 1) / factor * factor,
		n:       n,
		plan:    NewRFFTPlan(n),
		inv:     planFor(m),
		seg:     make([]float64, n),
		spec:    make([]complex128, n/2+1),
		scratch: make([]complex128, n/2),
		fold:    make([]complex128, m),
	}
	d.rot = (taps - 1 + d.delay) % factor
	d.zeros = make([]float64, d.delay)
	// Output position q of the circular convolution is
	// (1/n) sum_k Y[k] w^(kq), w = exp(2πi/n). At q = rot + factor*j the
	// sum splits into n/factor-point inverse transforms of the folded
	// bins, once each bin carries w^(k*rot): rotate and scale here.
	d.kspec = make([]complex128, n)
	copy(d.kspec, kernel)
	FFT(d.kspec)
	for k := range d.kspec {
		phase := 2 * math.Pi * float64(k*d.rot%n) / float64(n)
		d.kspec[k] *= cmplx.Exp(complex(0, phase)) / complex(float64(factor), 0)
	}
	return d
}

// Push consumes x and returns the kept outputs that became available.
// The returned slice is reused by the next Push/Flush call. After
// warm-up Push does not allocate.
func (d *AnalyticDecimator) Push(x []float64) []complex128 {
	if d.flushed {
		panic("dsp: AnalyticDecimator.Push after Flush (Reset first)")
	}
	d.out = d.out[:0]
	for len(x) > 0 {
		take := d.block - d.fill
		if take > len(x) {
			take = len(x)
		}
		if !d.liveNZ {
			for i := take - 1; i >= 0; i-- {
				if x[i] != 0 {
					d.liveNZ = true
					break
				}
			}
		}
		copy(d.seg[d.taps-1+d.fill:], x[:take])
		d.fill += take
		x = x[take:]
		if d.fill == d.block {
			d.runSegment(d.block)
		}
	}
	return d.out
}

// Flush drains the filter: it pushes the group delay's worth of zeros
// and runs the final partial segment, so every kept output aligned with
// a pushed sample is emitted (ceil(n/factor) in total for n samples).
// After Flush only Reset may be called.
func (d *AnalyticDecimator) Flush() []complex128 {
	if d.flushed {
		panic("dsp: AnalyticDecimator.Flush called twice")
	}
	d.Push(d.zeros)
	if d.fill > 0 {
		// Valid outputs at q < taps-1+fill read only seg[:q+1]; the
		// stale tail of the window cannot reach them.
		d.runSegment(d.fill)
	}
	d.flushed = true
	return d.out
}

// Reset returns the filter to its initial state for a new session,
// keeping the kernel spectrum and scratch buffers.
func (d *AnalyticDecimator) Reset() {
	for i := range d.seg {
		d.seg[i] = 0
	}
	d.fill = 0
	d.base = 0
	d.out = d.out[:0]
	d.liveNZ = false
	d.flushed = false
}

// runSegment filters the current window and appends the kept outputs
// among its first want valid positions [taps-1, taps-1+want).
func (d *AnalyticDecimator) runSegment(want int) {
	if d.liveNZ {
		d.plan.Transform(d.spec, d.seg, d.scratch)
		for i := range d.fold {
			d.fold[i] = 0
		}
		mask := len(d.fold) - 1
		h := d.n / 2
		for k := 0; k <= h; k++ {
			d.fold[k&mask] += d.spec[k] * d.kspec[k]
		}
		for k := h + 1; k < d.n; k++ {
			d.fold[k&mask] += cmplx.Conj(d.spec[d.n-k]) * d.kspec[k]
		}
		d.inv.transform(d.fold, true)
	}
	first := d.taps - 1
	j := 0
	if first > d.rot {
		j = (first - d.rot + d.factor - 1) / d.factor
	}
	for ; d.rot+d.factor*j < first+want; j++ {
		// Position q holds full-convolution index base-(taps-1)+q, the
		// aligned output delay samples earlier.
		if d.base+d.rot+d.factor*j-first-d.delay < 0 {
			continue
		}
		if d.liveNZ {
			d.out = append(d.out, d.fold[j])
		} else {
			d.out = append(d.out, 0)
		}
	}
	// The last taps-1 inputs become the next window's overlap; if they
	// are all zero, a silent next window can skip the transforms.
	copy(d.seg[:first], d.seg[d.block:d.block+first])
	d.fill = 0
	d.base += d.block
	d.liveNZ = false
	for i := first - 1; i >= 0; i-- {
		if d.seg[i] != 0 {
			d.liveNZ = true
			break
		}
	}
}

// AnalyticKernel returns the complex kernel f + j*(hilbert ∗ f), with f
// delayed by the Hilbert filter's group delay so both parts share one
// centre. Filtering with it yields, in one pass, the pair a cascade
// would produce by applying f and then the Hilbert transformer to f's
// output: the analytic signal of f's band, whose squared magnitude is
// the squared envelope.
func AnalyticKernel(f, hilbert *FIR) []complex128 {
	hv := Convolve(hilbert.Taps, f.Taps)
	k := make([]complex128, len(hv))
	off := hilbert.Delay()
	for i, v := range f.Taps {
		k[i+off] = complex(v, 0)
	}
	for i, v := range hv {
		k[i] += complex(0, v)
	}
	return k
}

// bandDecimatorRejectDB is the stopband attenuation of BandDecimator's
// anti-alias low-pass. Everything the decimation folds onto the kept
// band lies in that stopband, so 150 dB suppresses it further than a
// full-rate 4095-tap Blackman band-pass of 16-60 Hz at 48 kHz rejects
// 560 and 640 Hz (134 and 137 dB).
const bandDecimatorRejectDB = 150

// BandDecimator band-limits a stream to (lo, hi) Hz and decimates it by
// factor: a Kaiser anti-alias low-pass (passband to hi, stopband from
// rate/factor - hi, computed only at the kept outputs) followed by a
// Blackman band-pass of the given length at the reduced rate. Outputs
// are delay-compensated: kept output j aligns with input sample
// j*factor, and a stream of n samples yields ceil(n/factor) outputs.
// Single-session state; Reset it to serve a new session.
type BandDecimator struct {
	lp, bp *DecimatingFIR
	tail   []float64 // Flush's concatenation staging
}

// NewBandDecimator designs the two stages for an input at rate Hz. taps
// is the band-pass length at rate/factor; a band-pass of T taps at the
// input rate keeps its time span, and so its response, at T/factor.
func NewBandDecimator(rate float64, factor int, lo, hi float64, taps int) *BandDecimator {
	out := rate / float64(factor)
	if out-hi <= hi {
		panic(fmt.Sprintf("dsp: BandDecimator output rate %v too low for a %v Hz band edge", out, hi))
	}
	lp := kaiserLowPassFIR(hi/rate, (out-hi)/rate, bandDecimatorRejectDB)
	return &BandDecimator{
		lp: NewDecimatingFIR(lp, factor),
		bp: NewDecimatingFIR(BandPassFIR(taps, lo/out, hi/out), 1),
	}
}

// Push consumes x and returns the band-limited decimated outputs that
// became available, in a slice reused by the next Push/Flush call.
func (b *BandDecimator) Push(x []float64) []float64 { return b.bp.Push(b.lp.Push(x)) }

// Flush drains both stages and returns the remaining outputs. After
// Flush only Reset may be called.
func (b *BandDecimator) Flush() []float64 {
	b.tail = append(b.tail[:0], b.bp.Push(b.lp.Flush())...)
	b.tail = append(b.tail, b.bp.Flush()...)
	return b.tail
}

// Reset returns both stages to their initial state.
func (b *BandDecimator) Reset() {
	b.lp.Reset()
	b.bp.Reset()
}
