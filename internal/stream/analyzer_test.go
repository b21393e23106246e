package stream

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"inaudible/internal/audio"
	"inaudible/internal/defense"
)

// Documented streaming-vs-batch parity tolerances (see the package doc):
// the four spectral features are exact up to FMA rounding, the envelope
// correlation swaps the analytic envelope for a causal FIR Hilbert.
const (
	exactTol = 1e-9
	corrTol  = 0.15
)

// attackLike builds a signal carrying the m(t)^2 signature the defense
// looks for: speech-band content whose squared envelope also appears in
// the 16-60 Hz trace band and above 8.5 kHz.
func attackLike(rate float64, seconds float64, seed int64) *audio.Signal {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * seconds)
	x := make([]float64, n)
	for i := range x {
		t := float64(i) / rate
		// Syllabic on/off gating (~3 Hz) like real speech bursts.
		gate := 0.0
		if math.Sin(2*math.Pi*3*t) > -0.3 {
			gate = 1
		}
		env := gate * (0.6 + 0.4*math.Sin(2*math.Pi*5*t))
		m := env * (math.Sin(2*math.Pi*300*t) + 0.5*math.Sin(2*math.Pi*1100*t))
		// y ~ m + beta m^2: the quadratic term populates the trace band
		// (envelope rate) and the super-voice band (2x content).
		x[i] = 0.5*m + 0.25*m*m + 0.002*(rng.Float64()*2-1)
	}
	return audio.FromSamples(rate, x)
}

// legitLike is speech-band content plus stationary noise, without the
// quadratic copy.
func legitLike(rate float64, seconds float64, seed int64) *audio.Signal {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * seconds)
	x := make([]float64, n)
	for i := range x {
		t := float64(i) / rate
		gate := 0.0
		if math.Sin(2*math.Pi*2.5*t+0.7) > -0.2 {
			gate = 1
		}
		env := gate * (0.5 + 0.5*math.Abs(math.Sin(2*math.Pi*4*t)))
		m := env * (math.Sin(2*math.Pi*220*t) + 0.4*math.Sin(2*math.Pi*900*t+0.3))
		x[i] = 0.6*m + 0.004*(rng.Float64()*2-1)
	}
	return audio.FromSamples(rate, x)
}

func assertParity(t *testing.T, name string, got, want defense.Features) {
	t.Helper()
	check := func(fname string, g, w, tol float64) {
		t.Helper()
		if math.Abs(g-w) > tol {
			t.Errorf("%s/%s: streaming %.6g vs batch %.6g (tol %g)", name, fname, g, w, tol)
		}
	}
	check("TraceSNR", got.TraceSNR, want.TraceSNR, exactTol)
	check("HighSNR", got.HighSNR, want.HighSNR, exactTol)
	check("Sub50LogRatio", got.Sub50LogRatio, want.Sub50LogRatio, exactTol)
	check("HighLogRatio", got.HighLogRatio, want.HighLogRatio, exactTol)
	check("LowEnvCorr", got.LowEnvCorr, want.LowEnvCorr, corrTol)
}

func TestAnalyzerMatchesBatchExtract(t *testing.T) {
	// Every rate class the server accepts: 48 kHz, 44.1 kHz (rate/600
	// truncates to a prime), 96 and 192 kHz, and just above the floor
	// where the envelope runs at rate/2.
	for _, rate := range []float64{48000, 44100, 96000, 192000, MinSampleRate() + 1} {
		signals := map[string]*audio.Signal{
			"attack-like": attackLike(rate, 2.5, 1),
			"legit-like":  legitLike(rate, 2.5, 2),
		}
		for name, sig := range signals {
			want := defense.Extract(sig)
			for _, chunk := range []int{960, 4096, 1} {
				if chunk == 1 && (testing.Short() || rate != 48000) {
					continue
				}
				got := Extract(sig, chunk)
				assertParity(t, fmt.Sprintf("%s@%v/%d", name, rate, chunk), got, want)
			}
		}
	}
}

func TestAnalyzerPreservesClassGap(t *testing.T) {
	// The streaming LowEnvCorr tolerance must not blur the class
	// separation the feature exists to provide.
	const rate = 48000.0
	atk := Extract(attackLike(rate, 2.5, 3), 960)
	leg := Extract(legitLike(rate, 2.5, 4), 960)
	if atk.LowEnvCorr <= leg.LowEnvCorr+2*corrTol {
		t.Fatalf("streaming LowEnvCorr gap collapsed: attack %.3f vs legit %.3f",
			atk.LowEnvCorr, leg.LowEnvCorr)
	}
	if atk.Sub50LogRatio <= leg.Sub50LogRatio {
		t.Fatalf("streaming Sub50LogRatio gap collapsed: attack %.3f vs legit %.3f",
			atk.Sub50LogRatio, leg.Sub50LogRatio)
	}
}

func TestAnalyzerEdgeCases(t *testing.T) {
	const rate = 48000.0
	cases := map[string]*audio.Signal{
		"empty":   audio.FromSamples(rate, nil),
		"silence": audio.New(rate, 1.0),
		"short":   attackLike(rate, 0.1, 9), // < one Welch frame
	}
	for name, sig := range cases {
		want := defense.Extract(sig)
		got := Extract(sig, 960)
		assertParity(t, name, got, want)
	}
}

func TestAnalyzerSnapshotThenFinalize(t *testing.T) {
	const rate = 48000.0
	sig := attackLike(rate, 2.0, 5)
	want := defense.Extract(sig)
	a := NewAnalyzer(AnalyzerConfig{Rate: rate})
	half := len(sig.Samples) / 2
	a.Push(sig.Samples[:half])
	_ = a.Features() // snapshot must not disturb final parity
	a.Push(sig.Samples[half:])
	assertParity(t, "after-snapshot", a.Finalize(), want)
	if a.Samples() != sig.Len() {
		t.Fatalf("Samples() = %d, want %d", a.Samples(), sig.Len())
	}
}

func TestAnalyzerReset(t *testing.T) {
	const rate = 48000.0
	first := legitLike(rate, 1.5, 6)
	second := attackLike(rate, 2.0, 7)
	a := NewAnalyzer(AnalyzerConfig{Rate: rate})
	a.Push(first.Samples)
	a.Finalize()
	a.Reset()
	for off := 0; off < len(second.Samples); off += 960 {
		end := off + 960
		if end > len(second.Samples) {
			end = len(second.Samples)
		}
		a.Push(second.Samples[off:end])
	}
	assertParity(t, "after-reset", a.Finalize(), defense.Extract(second))
}

func TestAnalyzerCorrCapBoundsMemory(t *testing.T) {
	// With a tiny correlation cap the decimated traces stop growing but
	// the spectral features still cover the whole stream exactly.
	const rate = 48000.0
	sig := attackLike(rate, 3.0, 8)
	a := NewAnalyzer(AnalyzerConfig{Rate: rate, MaxCorrSeconds: 1})
	a.Push(sig.Samples)
	if got, cap := len(a.lowD), a.corrCap; got > cap {
		t.Fatalf("low trace grew to %d, cap %d", got, cap)
	}
	if !a.corrDone {
		t.Fatalf("correlation chain still running past the cap")
	}
	f := a.Finalize()
	want := defense.Extract(sig)
	if math.Abs(f.Sub50LogRatio-want.Sub50LogRatio) > exactTol ||
		math.Abs(f.TraceSNR-want.TraceSNR) > exactTol {
		t.Fatalf("capped session lost spectral parity: %v vs %v", f, want)
	}
	if f.LowEnvCorr == 0 {
		t.Fatalf("capped session should still report a correlation over its prefix")
	}
}

func TestAnalyzerStatCapBoundsMemory(t *testing.T) {
	// The per-frame band statistics stop growing at MaxStatSeconds, so
	// an endless session cannot exhaust memory; the noise-subtracted
	// features then cover the capped prefix.
	const rate = 48000.0
	a := NewAnalyzer(AnalyzerConfig{Rate: rate, MaxCorrSeconds: 1, MaxStatSeconds: 2})
	sig := attackLike(rate, 4.0, 12)
	a.Push(sig.Samples)
	if got := len(a.voiceP); got != a.maxStatFrames {
		t.Fatalf("frame stats grew to %d, want cap %d", got, a.maxStatFrames)
	}
	f := a.Finalize()
	if f.TraceSNR <= defense.FloorLog {
		t.Fatalf("capped session lost its noise-subtracted features: %v", f)
	}
}

func TestAnalyzerPushNoAlloc(t *testing.T) {
	const rate = 48000.0
	a := NewAnalyzer(AnalyzerConfig{Rate: rate})
	frame := attackLike(rate, 0.5, 10).Samples[:960]
	for i := 0; i < 200; i++ { // warm all chain stagings past steady state
		a.Push(frame)
	}
	allocs := testing.AllocsPerRun(200, func() { a.Push(frame) })
	if allocs != 0 {
		t.Fatalf("Analyzer.Push allocated %v times per run, want 0", allocs)
	}
}
