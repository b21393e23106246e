package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sameAsExhaustive fails t unless MaxCorrelationLag's answer has the
// exhaustive search's value bits and lag. It returns how the screened
// call was answered.
func sameAsExhaustive(t *testing.T, x, y []float64, maxLag int) lagSearch {
	t.Helper()
	got, gotLag, st := maxCorrelationLag(x, y, maxLag)
	want, wantLag, _ := exhaustiveMaxCorrelationLag(x, y, maxLag, lagShortWindow)
	if math.Float64bits(got) != math.Float64bits(want) || gotLag != wantLag {
		t.Fatalf("len %d/%d maxLag %d (path %d, %d exact): got %v @ %d, exhaustive %v @ %d",
			len(x), len(y), maxLag, st.path, st.exact, got, gotLag, want, wantLag)
	}
	return st
}

// tracePair is a defense-style trace-band pair: white noise through the
// 4095-tap 16–60 Hz band-pass at 48 kHz, and the same trace delayed by
// shift samples under independent band-limited noise.
func tracePair(n, shift int, seed int64) (x, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	src := make([]float64, n+shift)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	bp := BandPassFIR(4095, 16.0/48000, 60.0/48000)
	low := bp.Apply(src)
	x = low[shift:]
	y = make([]float64, n)
	for i := range y {
		y[i] = 0.3 * rng.NormFloat64()
	}
	y = bp.Apply(y)
	for i := range y {
		y[i] += low[i]
	}
	return x, y
}

// envelopePair is an E1-style pair: smoothed envelopes (24 Hz, DC
// included) of a slowly modulated 1 kHz tone and of a delayed, noisier
// copy, both at 48 kHz.
func envelopePair(n, shift int, seed int64) (a, b []float64) {
	rng := rand.New(rand.NewSource(seed))
	mod := make([]float64, n+shift)
	for i := range mod {
		mod[i] = rng.NormFloat64()
	}
	mod = LowPassFIR(511, 6.0/48000).Apply(mod)
	tone := func(m []float64, noise float64) []float64 {
		s := make([]float64, len(m))
		for i := range s {
			s[i] = (1+20*m[i])*math.Sin(2*math.Pi*1000*float64(i)/48000) + noise*rng.NormFloat64()
		}
		return SmoothedEnvelope(s, 48000, 24)
	}
	return tone(mod[shift:], 0.05), tone(mod[:n], 0.2)
}

// TestMaxCorrelationLagCertificate pins which way each kind of input is
// answered: the screen must engage on the defense's trace pairs and E1's
// envelope pairs with few exact evaluations, and every fallback must be
// taken exactly when its certificate fails. Every answer must match the
// exhaustive search bit for bit.
func TestMaxCorrelationLagCertificate(t *testing.T) {
	trX, trY := tracePair(24000, 300, 1)
	envA, envB := envelopePair(24000, 1200, 2)
	noise := func(n int, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	with := func(v []float64, i int, val float64) []float64 {
		c := append([]float64(nil), v...)
		c[i] = val
		return c
	}
	step := make([]float64, 4000)
	for i := 2000; i < len(step); i++ {
		step[i] = 1
	}
	constant := make([]float64, 4000)
	for i := range constant {
		constant[i] = 0.1
	}
	white := noise(4000, 3)
	cases := []struct {
		name     string
		x, y     []float64
		maxLag   int
		path     lagPath
		maxExact int // screened cases: ceiling on exact evaluations
	}{
		{"trace band, 4095 taps", trX, trY, 2400, lagScreened, 16},
		{"E1 envelopes", envA, envB, 4800, lagScreened, 16},
		{"streaming analyzer window", noise(36000, 4), noise(36000, 5), 30, lagShortWindow, 0},
		{"window just below crossover", white, white, (screenMinLags - 2) / 2, lagShortWindow, 0},
		{"NaN sample", with(white, 17, math.NaN()), white, 600, lagNonFinite, 0},
		{"+Inf sample", white, with(white, 3999, math.Inf(1)), 600, lagNonFinite, 0},
		{"sample beyond 2^200", with(white, 5, 1e61), white, 600, lagNonFinite, 0},
		{"constant input", constant, white, 600, lagCancellation, 0},
		{"step past the window", step, white, 2500, lagCancellation, 0},
		{"maxLag beyond length", white, white, 5000, lagCancellation, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := sameAsExhaustive(t, tc.x, tc.y, tc.maxLag)
			if st.path != tc.path {
				t.Fatalf("path %d, want %d", st.path, tc.path)
			}
			if tc.path != lagScreened {
				return
			}
			t.Logf("%d exact evaluations of %d lags", st.exact, 2*tc.maxLag+1)
			if st.exact < 1 || st.exact > tc.maxExact {
				t.Fatalf("%d exact evaluations of %d lags, want 1..%d", st.exact, 2*tc.maxLag+1, tc.maxExact)
			}
		})
	}
}

// TestMaxCorrelationLagConcurrent runs screened searches of different
// window sizes at once, so the race detector sees the pooled scratch
// and the plan caches shared across goroutines.
func TestMaxCorrelationLagConcurrent(t *testing.T) {
	x, y := tracePair(6000, 40, 3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		maxLag := 100 + 250*g
		want, wantLag, _ := exhaustiveMaxCorrelationLag(x, y, maxLag, lagShortWindow)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, lag, st := maxCorrelationLag(x, y, maxLag)
				if st.path != lagScreened || math.Float64bits(got) != math.Float64bits(want) || lag != wantLag {
					t.Errorf("maxLag %d: path %d, %v @ %d, want %v @ %d", maxLag, st.path, got, lag, want, wantLag)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzMaxCorrelationLag pins the screened search to the exhaustive one,
// bit for bit: value bits and lag, across lengths, windows, DC offsets,
// constant and periodic inputs (exact ties) and non-finite samples.
func FuzzMaxCorrelationLag(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	// seed, len(x), len(y), maxLag, shape, dc x, dc y, poke index, poke value
	f.Add(int64(1), uint16(3000), uint16(2000), uint16(400), uint8(0), 0.0, 0.0, uint16(0), 0.0)    // unequal lengths
	f.Add(int64(2), uint16(1500), uint16(1700), uint16(600), uint8(1), 0.0, 0.0, uint16(0), 0.0)    // band-limited
	f.Add(int64(3), uint16(300), uint16(400), uint16(900), uint8(1), 0.0, 0.0, uint16(0), 0.0)      // maxLag ≥ len
	f.Add(int64(4), uint16(2000), uint16(2000), uint16(300), uint8(1), 1e3, -7.5, uint16(0), 0.0)   // DC offsets
	f.Add(int64(5), uint16(2000), uint16(2000), uint16(300), uint8(3), 0.1, 0.0, uint16(0), 0.0)    // constant slices
	f.Add(int64(6), uint16(2000), uint16(2000), uint16(300), uint8(0), 0.0, 0.0, uint16(77), nan)   // NaN sample
	f.Add(int64(7), uint16(2000), uint16(2000), uint16(300), uint8(1), 0.0, 0.0, uint16(1999), inf) // Inf sample
	f.Add(int64(8), uint16(2400), uint16(2400), uint16(500), uint8(2), 0.0, 0.0, uint16(0), 0.0)    // periodic: exact ties
	f.Add(int64(9), uint16(2400), uint16(2000), uint16(500), uint8(2), 3.0, 3.0, uint16(0), 0.0)    // periodic + DC
	f.Fuzz(func(t *testing.T, seed int64, nx, ny, maxLag uint16, shape uint8, dcx, dcy float64, poke uint16, pokeVal float64) {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, int(nx)%4000)
		y := make([]float64, int(ny)%4000)
		period := 2 + rng.Intn(200)
		cycle := make([]float64, period)
		for i := range cycle {
			cycle[i] = rng.NormFloat64()
		}
		fill := func(v []float64) {
			var acc float64
			for i := range v {
				switch shape % 4 {
				case 0: // white
					v[i] = rng.NormFloat64()
				case 1: // band-limited random walk with leak
					acc = 0.98*acc + rng.NormFloat64()
					v[i] = acc
				case 2: // exactly periodic, shared by x and y
					v[i] = cycle[i%period]
				case 3: // constant
					v[i] = 0
				}
			}
		}
		fill(x)
		fill(y)
		for i := range x {
			x[i] += dcx
		}
		for i := range y {
			y[i] += dcy
		}
		if len(x) > 0 && pokeVal != 0 {
			x[int(poke)%len(x)] = pokeVal
		}
		sameAsExhaustive(t, x, y, int(maxLag)%5000)
	})
}

// BenchmarkMaxCorrelationLagCrossover times the screen against the
// exhaustive loop across lag windows; screenMinLags sits where they
// cross. The wide windows are the defense's ±50 ms at 48 kHz and E1's
// ±100 ms.
func BenchmarkMaxCorrelationLagCrossover(b *testing.B) {
	x, y := tracePair(96000, 300, 1)
	for _, n := range []int{1200, 4800, 36000, 96000} {
		for _, maxLag := range []int{16, 30, 48, 64, 96, 2400, 4800} {
			if 2*maxLag >= n {
				continue
			}
			xs, ys := x[:n], y[:n]
			name := func(s string) string { return fmt.Sprintf("%s/n=%d/lags=%d", s, n, 2*maxLag+1) }
			b.Run(name("screen"), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, st := screenedMaxCorrelationLag(xs, ys, maxLag, -maxLag, maxLag); st.path != lagScreened {
						b.Fatalf("screen fell back (path %d)", st.path)
					}
				}
			})
			if maxLag > 100 && n > 36000 {
				continue // the exhaustive loop takes seconds here
			}
			b.Run(name("exhaustive"), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					exhaustiveMaxCorrelationLag(xs, ys, maxLag, lagShortWindow)
				}
			})
		}
	}
}
