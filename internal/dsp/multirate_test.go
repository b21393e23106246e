package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// multirateChunks are the push sizes every multirate kernel must be
// indifferent to: single samples, an odd size, a 20 ms frame at 48 kHz
// and one larger than the direct-form buffer's slack.
var multirateChunks = []int{1, 7, 960, 4096}

// decimated returns x[0], x[factor], x[2*factor], ...
func decimated(x []float64, factor int) []float64 {
	var out []float64
	for i := 0; i < len(x); i += factor {
		out = append(out, x[i])
	}
	return out
}

// pushChunked streams x through push in chunk-sized calls, then flush,
// and returns the concatenated outputs.
func pushChunked[T any](x []float64, chunk int, push func([]float64) []T, flush func() []T) []T {
	var out []T
	for off := 0; off < len(x); off += chunk {
		out = append(out, push(x[off:min(off+chunk, len(x))])...)
	}
	return append(out, flush()...)
}

// directAnalytic is the full-rate complex filter sampled every factor
// samples: out[j] = sum_t kernel[t]*x[j*factor+delay-t].
func directAnalytic(x []float64, kernel []complex128, factor int) []complex128 {
	delay := (len(kernel) - 1) / 2
	var out []complex128
	for i := 0; i < len(x); i += factor {
		var s complex128
		for t, c := range kernel {
			if k := i + delay - t; k >= 0 && k < len(x) {
				s += c * complex(x[k], 0)
			}
		}
		out = append(out, s)
	}
	return out
}

func maxAbsDiffC(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		m = math.Max(m, cmplx.Abs(a[i]-b[i]))
	}
	return m
}

func TestDecimatingFIRMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]float64, 37)
	for i := range random {
		random[i] = rng.NormFloat64()
	}
	cases := []struct {
		name   string
		f      *FIR
		factor int
	}{
		{"anti-alias/80", kaiserLowPassFIR(60/48000.0, 540/48000.0, 150), 80},
		{"trace-band/1", BandPassFIR(51, 16/600.0, 60/600.0), 1},
		{"random/3", &FIR{Taps: random}, 3},
		{"single-tap/5", &FIR{Taps: []float64{0.5}}, 5},
	}
	for _, tc := range cases {
		d := NewDecimatingFIR(tc.f, tc.factor)
		// Two sessions through one filter: the second runs after
		// Flush+Reset and must not see the first.
		for session, n := range []int{12345, 9001} {
			x := testStream(n, int64(10+session))
			want := decimated(tc.f.Apply(x), tc.factor)
			for _, chunk := range multirateChunks {
				got := pushChunked(x, chunk, d.Push, d.Flush)
				d.Reset()
				if e := maxAbsDiff(got, want); e > 1e-12 {
					t.Fatalf("%s session %d chunk %d: max |streamed - Apply| = %g (len %d vs %d)",
						tc.name, session, chunk, e, len(got), len(want))
				}
			}
		}
	}
}

func TestDecimatingFIRSilentWindowsAreZero(t *testing.T) {
	f := kaiserLowPassFIR(0.01, 0.05, 100)
	d := NewDecimatingFIR(f, 4)
	x := make([]float64, 6000)
	for i := 2000; i < 2100; i++ {
		x[i] = 1
	}
	got := pushChunked(x, 960, d.Push, d.Flush)
	want := decimated(f.Apply(x), 4)
	if e := maxAbsDiff(got, want); e > 1e-12 {
		t.Fatalf("burst in silence: max error %g", e)
	}
	for j, v := range got {
		if i := j * 4; (i+f.Delay() < 2000 || i-f.Delay() >= 2100) && v != 0 {
			t.Fatalf("output %d (input %d) is %g; its window holds only zeros", j, i, v)
		}
	}
}

func TestAnalyticDecimatorMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randomKernel := func(n int) []complex128 {
		k := make([]complex128, n)
		for i := range k {
			k[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return k
	}
	analytic := AnalyticKernel(BandPassFIR(63, 0.01, 0.3), HilbertFIR(63))
	cases := []struct {
		name   string
		kernel []complex128
		factor int
		block  int
	}{
		{"analytic/4", analytic, 4, 512},
		{"analytic/1", analytic, 1, 300},
		{"random/8", randomKernel(40), 8, 100},
		{"random/2-even", randomKernel(30), 2, 64},
		{"short/16", randomKernel(3), 16, 1},
	}
	for _, tc := range cases {
		d := NewAnalyticDecimator(tc.kernel, tc.factor, tc.block)
		for session, n := range []int{10007, 4321} {
			x := testStream(n, int64(20+session))
			want := directAnalytic(x, tc.kernel, tc.factor)
			for _, chunk := range multirateChunks {
				got := pushChunked(x, chunk, d.Push, d.Flush)
				d.Reset()
				if e := maxAbsDiffC(got, want); e > 1e-11 {
					t.Fatalf("%s session %d chunk %d: max |streamed - direct| = %g (len %d vs %d)",
						tc.name, session, chunk, e, len(got), len(want))
				}
			}
		}
	}
}

func TestAnalyticKernelMatchesCascade(t *testing.T) {
	// One complex pass equals the two-filter cascade it replaces: the
	// real part is the band-pass output, the imaginary part its Hilbert
	// transform (away from the stream edges, where the cascade truncates
	// its intermediate stream).
	vb, hil := BandPassFIR(63, 0.01, 0.3), HilbertFIR(31)
	x := testStream(3000, 9)
	band := vb.Apply(x)
	quad := hil.Apply(band)
	got := directAnalytic(x, AnalyticKernel(vb, hil), 1)
	for i := 100; i < len(x)-100; i++ {
		if math.Abs(real(got[i])-band[i]) > 1e-12 || math.Abs(imag(got[i])-quad[i]) > 1e-12 {
			t.Fatalf("sample %d: kernel %v, cascade (%g, %g)", i, got[i], band[i], quad[i])
		}
	}
}

// toneRMS is the RMS about the mean of out over its middle half: the
// tone's level, clear of edge transients and of the DC that a squared
// envelope carries.
func toneRMS(out []float64) float64 {
	return StdDev(out[len(out)/4 : 3*len(out)/4])
}

func tone(rate, hz float64, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * hz * float64(i) / rate)
	}
	return x
}

// TestBandDecimatorAliasRejection holds the trace path to the
// full-rate reference it replaces: tones at 560 and 640 Hz fold onto
// 40 Hz at 600 Hz, inside the 16-60 Hz trace band, so only the
// anti-alias stage stands between them and the output. They must come
// out no stronger than the 4095-tap band-pass leaves them, while an
// in-band tone passes like it does through the reference.
func TestBandDecimatorAliasRejection(t *testing.T) {
	const rate = 48000.0
	ref := BandPassFIR(4095, 16/rate, 60/rate)
	bd := NewBandDecimator(rate, 80, 16, 60, 51)
	run := func(x []float64) (got, want float64) {
		out := pushChunked(x, 960, bd.Push, bd.Flush)
		bd.Reset()
		return toneRMS(out), toneRMS(decimated(ref.Apply(x), 80))
	}
	n := int(4 * rate)
	got, want := run(tone(rate, 40, n))
	if math.Abs(AmplitudeDB(got/want)) > 0.05 {
		t.Fatalf("40 Hz in-band tone: decimated %g vs reference %g", got, want)
	}
	for _, hz := range []float64{560, 640} {
		got, want := run(tone(rate, hz, n))
		t.Logf("%v Hz: decimated %.1f dB, reference %.1f dB", hz, AmplitudeDB(got), AmplitudeDB(want))
		if got > want {
			t.Errorf("%v Hz folds through at %.1f dB; the full-rate band-pass leaves %.1f dB",
				hz, AmplitudeDB(got), AmplitudeDB(want))
		}
	}
}

// TestEnvelopeDecimationAliasRejection runs the envelope path: a
// voice-band two-tone whose squared envelope beats at 560 or 640 Hz,
// through the k = 4 analytic decimator and a BandDecimator from 12 kHz,
// against the full-rate analytic squared envelope, band-passed by the
// 4095-tap reference and sampled every 80. The beat must not fold into
// the trace band any more than the reference lets it through.
func TestEnvelopeDecimationAliasRejection(t *testing.T) {
	const rate = 48000.0
	kernel := AnalyticKernel(BandPassFIR(1023, 60/rate, 8000/rate), HilbertFIR(1023))
	ad := NewAnalyticDecimator(kernel, 4, 6000)
	bd := NewBandDecimator(rate/4, 20, 16, 60, 51)
	ref := BandPassFIR(4095, 16/rate, 60/rate)
	sq := func(a []complex128) []float64 {
		out := make([]float64, len(a))
		for i, v := range a {
			out[i] = real(v)*real(v) + imag(v)*imag(v)
		}
		return out
	}
	run := func(beat float64) (got, want float64) {
		n := int(3 * rate)
		x := tone(rate, 1000, n)
		Add(x, tone(rate, 1000+beat, n))
		env := sq(pushChunked(x, 960, ad.Push, ad.Flush))
		ad.Reset()
		out := pushChunked(env, 240, bd.Push, bd.Flush)
		bd.Reset()
		re, im := &FIR{Taps: make([]float64, len(kernel))}, &FIR{Taps: make([]float64, len(kernel))}
		for i, c := range kernel {
			re.Taps[i], im.Taps[i] = real(c), imag(c)
		}
		full := re.Apply(x)
		for i, q := range im.Apply(x) {
			full[i] = full[i]*full[i] + q*q
		}
		return toneRMS(out), toneRMS(decimated(ref.Apply(full), 80))
	}
	got, want := run(40)
	if math.Abs(AmplitudeDB(got/want)) > 0.05 {
		t.Fatalf("40 Hz envelope beat: decimated %g vs reference %g", got, want)
	}
	for _, beat := range []float64{560, 640} {
		got, want := run(beat)
		t.Logf("%v Hz beat: decimated %.1f dB, reference %.1f dB", beat, AmplitudeDB(got), AmplitudeDB(want))
		if got > want {
			t.Errorf("%v Hz beat folds through at %.1f dB; the full-rate band-pass leaves %.1f dB",
				beat, AmplitudeDB(got), AmplitudeDB(want))
		}
	}
}

func TestMultiratePushNoAlloc(t *testing.T) {
	const rate = 48000.0
	frame := testStream(960, 4)
	bd := NewBandDecimator(rate, 80, 16, 60, 51)
	ad := NewAnalyticDecimator(AnalyticKernel(BandPassFIR(1023, 60/rate, 8000/rate), HilbertFIR(1023)), 4, 6000)
	for i := 0; i < 50; i++ {
		bd.Push(frame)
		ad.Push(frame)
	}
	if a := testing.AllocsPerRun(200, func() { bd.Push(frame) }); a != 0 {
		t.Fatalf("BandDecimator.Push allocated %v times per call", a)
	}
	if a := testing.AllocsPerRun(200, func() { ad.Push(frame) }); a != 0 {
		t.Fatalf("AnalyticDecimator.Push allocated %v times per call", a)
	}
}

// FuzzDecimatingFIR checks random taps, factors and chunkings against
// the batch reference FIR.Apply sampled every factor.
func FuzzDecimatingFIR(f *testing.F) {
	f.Add(int64(1), uint8(31), uint8(3), uint16(7), uint16(500))
	f.Add(int64(2), uint8(0), uint8(0), uint16(0), uint16(0))
	f.Add(int64(3), uint8(200), uint8(79), uint16(960), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, taps, factor uint8, chunk, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		fir := &FIR{Taps: make([]float64, int(taps)+1)}
		for i := range fir.Taps {
			fir.Taps[i] = rng.NormFloat64()
		}
		x := make([]float64, int(n)%5000)
		for i := range x {
			if rng.Intn(4) > 0 { // leave zero runs for the silent-window path
				x[i] = rng.NormFloat64()
			}
		}
		d := NewDecimatingFIR(fir, int(factor)+1)
		step := int(chunk)%1200 + 1
		for session := 0; session < 2; session++ {
			got := pushChunked(x, step, d.Push, d.Flush)
			want := decimated(fir.Apply(x), int(factor)+1)
			var scale float64
			for _, v := range x {
				scale += math.Abs(v)
			}
			if e := maxAbsDiff(got, want); e > 1e-12*(1+scale)*float64(len(fir.Taps)) {
				t.Fatalf("taps %d factor %d chunk %d n %d session %d: max error %g (len %d vs %d)",
					len(fir.Taps), int(factor)+1, step, len(x), session, e, len(got), len(want))
			}
			d.Reset()
		}
	})
}
