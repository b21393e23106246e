package dsp

import (
	"math"
	"math/cmplx"
	"sync"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// PearsonCorrelation returns the Pearson correlation coefficient of x and y
// over their common length. It returns 0 when either input has zero
// variance (a degenerate but well-defined fallback used by the defense
// features on silent recordings).
func PearsonCorrelation(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if n == 0 {
		return 0
	}
	x = x[:n]
	y = y[:n]
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx <= 0 || syy <= 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MaxCorrelationLag computes the Pearson correlation of x and y over lags
// in [-maxLag, maxLag] (y shifted relative to x) and returns the maximum
// correlation and the lag at which it occurs. It tolerates small
// misalignments between a demodulated trace and the envelope it should
// track (group delay through filters).
//
// The result is bit-for-bit that of the exhaustive search: one
// PearsonCorrelation per lag, in ascending lag order, keeping the first
// strict maximum. Wide windows do not run that search. They are
// screened in O(n log n):
//
//  1. Each input's global mean is subtracted. Pearson on every slice is
//     unchanged by a shift, and centring removes the cancellation a DC
//     offset would cause in the sums below.
//  2. Every lag's r is estimated at once: Σx[i]·y[i+lag] by blocked FFT
//     correlation (pooled scratch of O(maxLag), not O(n)), slice sums and
//     sums of squares from running sums.
//  3. Each estimate gets an a-priori bound on its distance from what
//     PearsonCorrelation would return (see screenLags): FFT round-off
//     (Higham, Accuracy and Stability, Thm 24.2, with the plan cache's
//     accumulated twiddles), running-sum round-off, and
//     PearsonCorrelation's own two-pass round-off, doubled. It is about
//     1e-7 in r for the defense's traces.
//  4. The unchanged PearsonCorrelation runs, on the original slices, only
//     for lags whose upper bound reaches the best lower bound. Every lag
//     that attains the maximum is among them, so the value bits and the
//     tie-breaking are the exhaustive loop's by construction.
//
// The exhaustive loop runs instead whenever the bound cannot be
// certified: the window holds fewer than screenMinLags lags (the loop is
// faster there), an input holds a NaN, an Inf or a sample beyond ±2^200
// (where the sums could overflow), or some lag's slice variance loses
// more than half its sum of squares to cancellation or falls below
// 2^-400 (where products underflow).
func MaxCorrelationLag(x, y []float64, maxLag int) (best float64, bestLag int) {
	best, bestLag, _ = maxCorrelationLag(x, y, maxLag)
	return best, bestLag
}

// lagPath records which way maxCorrelationLag answered a call.
type lagPath int

const (
	lagScreened     lagPath = iota // certified screen, exact evaluation of the survivors
	lagShortWindow                 // fewer than screenMinLags lags: exhaustive loop
	lagNonFinite                   // NaN, Inf or out-of-range sample: exhaustive loop
	lagCancellation                // a slice variance failed the certificate: exhaustive loop
)

// lagSearch reports how a maxCorrelationLag call was answered: the path
// and the number of PearsonCorrelation evaluations it ran.
type lagSearch struct {
	path  lagPath
	exact int
}

// screenMinLags is the narrowest lag window that is screened.
// BenchmarkMaxCorrelationLagCrossover puts the crossover near 35 lags at
// 1.2k–96k samples on a 2-core x86-64 host; the threshold sits just above
// stream.Analyzer's 61-lag window, so the guard's serving path keeps the
// exhaustive loop it has always run.
const screenMinLags = 64

const (
	screenMaxAbs   = 0x1p200  // largest |sample| the screen takes on
	screenVarFloor = 0x1p-400 // smallest slice variance it takes on
	unitRoundoff   = 0x1p-53  // u: float64 rounding is relative error ≤ u
)

func maxCorrelationLag(x, y []float64, maxLag int) (float64, int, lagSearch) {
	lo := max(-maxLag, 1-len(x))
	hi := min(maxLag, len(y)-1)
	if len(x) == 0 || len(y) == 0 || hi-lo+1 < screenMinLags {
		return exhaustiveMaxCorrelationLag(x, y, maxLag, lagShortWindow)
	}
	return screenedMaxCorrelationLag(x, y, maxLag, lo, hi)
}

// screenedMaxCorrelationLag answers for the non-empty lag range lo..hi
// by the screen, or by the exhaustive loop when its bound cannot be
// certified.
func screenedMaxCorrelationLag(x, y []float64, maxLag, lo, hi int) (float64, int, lagSearch) {
	cx, xabs, okx := scanInput(x)
	cy, yabs, oky := scanInput(y)
	if !okx || !oky {
		return exhaustiveMaxCorrelationLag(x, y, maxLag, lagNonFinite)
	}
	sc := lagScratchPool.Get().(*lagScratch)
	defer lagScratchPool.Put(sc)
	if !sc.screenLags(x, y, cx, cy, xabs, yabs, lo, hi) {
		return exhaustiveMaxCorrelationLag(x, y, maxLag, lagCancellation)
	}
	floor := math.Inf(-1)
	for m, e := range sc.est {
		floor = math.Max(floor, e-sc.tol[m])
	}
	best, bestLag, st := math.Inf(-1), 0, lagSearch{path: lagScreened}
	for m, e := range sc.est {
		if e+sc.tol[m] < floor {
			continue
		}
		c := lagPearson(x, y, lo+m)
		st.exact++
		if c > best {
			best, bestLag = c, lo+m
		}
	}
	return best, bestLag, st
}

// exhaustiveMaxCorrelationLag is the reference search: PearsonCorrelation
// at every lag. The loop bounds skip only lags the body would skip.
func exhaustiveMaxCorrelationLag(x, y []float64, maxLag int, path lagPath) (best float64, bestLag int, st lagSearch) {
	st.path = path
	best = math.Inf(-1)
	for lag := max(-maxLag, -len(x)); lag <= min(maxLag, len(y)); lag++ {
		if lag >= 0 && lag >= len(y) || lag < 0 && -lag >= len(x) {
			continue
		}
		c := lagPearson(x, y, lag)
		st.exact++
		if c > best {
			best = c
			bestLag = lag
		}
	}
	if math.IsInf(best, -1) {
		return 0, 0, st
	}
	return best, bestLag, st
}

// lagPearson is one step of the exhaustive search: PearsonCorrelation of
// x and y shifted by lag, on the slices that search has always passed.
func lagPearson(x, y []float64, lag int) float64 {
	if lag >= 0 {
		return PearsonCorrelation(x, y[lag:])
	}
	return PearsonCorrelation(x[-lag:], y)
}

// scanInput returns v's mean, Σ|v| and whether every sample is finite
// and within ±screenMaxAbs.
func scanInput(v []float64) (mean, abs float64, ok bool) {
	var s, peak float64
	for _, e := range v {
		s += e
		a := math.Abs(e)
		abs += a
		peak = math.Max(peak, a)
	}
	ok = !math.IsNaN(s) && !math.IsInf(s, 0) && peak <= screenMaxAbs
	return s / float64(len(v)), abs, ok
}

// lagScratch is the pooled workspace of one screened search. Its size
// follows the lag window, not the input length.
type lagScratch struct {
	xb, yb, c []float64    // one FFT block of x, y's matching segment, their correlation
	xs, ys, z []complex128 // one-sided spectra and the half-length FFT workspace
	p         []float64    // Σ(x[i]−cx)·(y[i+lag]−cy) per lag
	est, tol  []float64    // estimated r per lag and its certified tolerance
	rx, ry    runningSums
}

var lagScratchPool = sync.Pool{New: func() any { return new(lagScratch) }}

// screenLags fills sc.est and sc.tol for lags lo..hi, with
// |est − PearsonCorrelation| ≤ tol at every lag. It reports false when a
// lag's bound cannot be certified.
//
// Notation for one lag: a = x−cx and b = y−cy over the lag's slices, n
// the slice length, u = 2^-53 and γ_k = k·u/(1−k·u). Absolute error
// bounds, to first order:
//
//   - Σa, Σa² (and b's) are differences of two running sums, each off by
//     at most γ_N·Σ|a| and γ_N·Σa² over the whole input (N the longer
//     length, plus slack for the final subtraction);
//   - Σab comes from crossSums, off by at most
//     fftCorrError(m)·Σ‖a_blk‖·‖b_seg‖ over its blocks of transform
//     length m, plus γ for summing the blocks;
//   - Saa = Σa² − (Σa)²/n and Sab = Σab − Σa·Σb/n carry those errors
//     through, plus a few roundings; the certificate demands
//     Saa ≥ Σa²/2 and that Saa's bound stays under a quarter of Saa, so
//     the lower bound La = Saa − err is meaningful;
//   - est = Sab/√(Saa·Sbb) is then within err(Sab)/√(La·Lb) +
//     err(Saa)/La + err(Sbb)/Lb of the real-arithmetic r;
//   - PearsonCorrelation is within 2ζ + ξx + ξy of that r, where its mean
//     of x is off by e = γ_(n+3)·Σ|x|/n, τx = n·e²/La,
//     ξx = τx + γ(1+τx), ζ = √(τx·τy) + γ·√((1+τx)(1+τy)); the
//     certificate demands ξ ≤ 1/4.
//
// The tolerance is twice the sum, plus 32u for the centring shift and
// the roundings of the estimate and of the screen's comparisons. The
// factor two covers the second-order terms. Underflow adds at most
// k·2^-1074 to a k-term sum, far below u times the 2^-400 variance
// floor.
func (sc *lagScratch) screenLags(x, y []float64, cx, cy, xabs, yabs float64, lo, hi int) bool {
	const u = unitRoundoff
	w := hi - lo + 1
	sc.p = growSlice(sc.p, w)
	sc.est = growSlice(sc.est, w)
	sc.tol = growSlice(sc.tol, w)
	normSum, m, blocks := sc.crossSums(x, y, cx, cy, lo)

	// Running sums are read at slice starts (0..max(0, -lo) for x,
	// 0..max(0, hi) for y) and at slice ends.
	sc.rx.fill(x, cx, max(0, -lo), min(len(x), len(y)-hi), min(len(x), len(y)-lo))
	sc.ry.fill(y, cy, max(0, hi), min(len(x)+lo, len(y)), min(len(x)+hi, len(y)))

	g := gamma(max(len(x), len(y)) + 8)
	ep := (fftCorrError(m) + gamma(blocks+1)) * normSum
	esa, eqa := 2*g*sc.rx.abs, 2*g*sc.rx.sq
	esb, eqb := 2*g*sc.ry.abs, 2*g*sc.ry.sq
	for k := 0; k < w; k++ {
		lag := lo + k
		xa, yb := max(0, -lag), max(0, lag)
		cnt := min(len(x)-xa, len(y)-yb)
		n := float64(cnt)
		sa, qa := sc.rx.slice(xa, xa+cnt)
		sb, qb := sc.ry.slice(yb, yb+cnt)
		saa := qa - sa*sa/n
		sbb := qb - sb*sb/n
		if !(saa >= qa/2 && sbb >= qb/2 && saa >= screenVarFloor && sbb >= screenVarFloor) {
			return false
		}
		esaa := eqa + (2*math.Abs(sa)*esa+esa*esa)/n + 8*u*qa
		esbb := eqb + (2*math.Abs(sb)*esb+esb*esb)/n + 8*u*qb
		la, lb := saa-esaa, sbb-esbb
		if !(esaa <= la/4 && esbb <= lb/4) {
			return false
		}
		sab := sc.p[k] - sa*sb/n
		esab := ep + (math.Abs(sa)*esb+math.Abs(sb)*esa+esa*esb)/n +
			8*u*(math.Abs(sc.p[k])+math.Abs(sa*sb)/n)

		gn := gamma(cnt + 3)
		tx := gn * gn * xabs * xabs / (n * la)
		ty := gn * gn * yabs * yabs / (n * lb)
		xix, xiy := tx+gn*(1+tx), ty+gn*(1+ty)
		if !(xix <= 0.25 && xiy <= 0.25) {
			return false
		}
		zeta := math.Sqrt(tx*ty) + gn*math.Sqrt((1+tx)*(1+ty))

		sc.est[k] = sab / math.Sqrt(saa*sbb)
		sc.tol[k] = 2*(esab/math.Sqrt(la*lb)+esaa/la+esbb/lb+2*zeta+xix+xiy) + 32*u
	}
	return true
}

// crossSums sets sc.p[k] to Σ_i a[i]·b[i+lo+k], a = x−cx and b = y−cy
// (zero outside their ranges), by FFT correlation of x in blocks against
// the matching segments of y. It returns Σ‖a_blk‖₂·‖b_seg‖₂ over the
// blocks, the scale of the result's error, the transform length and the
// block count.
func (sc *lagScratch) crossSums(x, y []float64, cx, cy float64, lo int) (normSum float64, m, blocks int) {
	p := sc.p
	w := len(p)
	m = min(NextPowerOfTwo(2*w), NextPowerOfTwo(len(x)+w-1))
	blk := m - w + 1 // a block and its segment fit one transform unwrapped
	sc.xb, sc.yb, sc.c = growSlice(sc.xb, m), growSlice(sc.yb, m), growSlice(sc.c, m)
	sc.xs, sc.ys, sc.z = growSlice(sc.xs, m/2+1), growSlice(sc.ys, m/2+1), growSlice(sc.z, m/2)
	clear(p)
	for s := 0; s < len(x); s += blk {
		bl := min(blk, len(x)-s)
		base := s + lo // y index facing xb[0] at the window's first lag
		if base >= len(y) {
			break // y has ended: no later block meets it at any lag
		}
		// Squared norms start at k·2^-1074 so that squares lost to
		// underflow cannot shrink the error scale.
		na, nb := float64(bl)*0x1p-1074, float64(bl+w-1)*0x1p-1074
		for i := 0; i < bl; i++ {
			d := x[s+i] - cx
			sc.xb[i] = d
			na += d * d
		}
		clear(sc.xb[bl:])
		clear(sc.yb)
		for j := max(0, base); j < min(len(y), base+bl+w-1); j++ {
			d := y[j] - cy
			sc.yb[j-base] = d
			nb += d * d
		}
		blocks++
		normSum += math.Sqrt(na) * math.Sqrt(nb)
		RFFTInto(sc.xs, sc.xb, sc.z)
		RFFTInto(sc.ys, sc.yb, sc.z)
		for k, v := range sc.xs {
			sc.xs[k] = cmplx.Conj(v) * sc.ys[k]
		}
		IRFFTInto(sc.c, sc.xs, sc.z)
		for k := range p {
			p[k] += sc.c[k]
		}
	}
	return normSum, m, blocks
}

// fftCorrError bounds the error of one block of crossSums, relative to
// ‖a_blk‖₂·‖b_seg‖₂, for real transforms of length m (each a length-m/2
// complex radix-2 FFT plus an unpacking pass). Twiddles are accumulated
// products (plan.go), so a stage of size s has twiddle error
// μ ≤ 5u·s/2 ≤ 3u·m/2. Per Higham Thm 24.2 the complex FFT's relative
// 2-norm error is ε = L·η/(1−L·η), L = log2(m/2), η = μ + γ4(√2+μ);
// unpacking adds 8u. Correlating via conj(X)·Y and inverting gives at
// most (3ε+8u)·√m, the √m bounding ‖Y‖∞ by ‖y‖₂. The result is doubled
// to cover the √2 factors of the one-sided spectra.
func fftCorrError(m int) float64 {
	const u = unitRoundoff
	h := float64(m / 2)
	mu := 3 * u * h
	eta := mu + gamma(4)*(math.Sqrt2+mu)
	l := math.Log2(h) * eta
	eps := l/(1-l) + 8*u
	return 2 * (3*eps + 8*u) * math.Sqrt(float64(m))
}

// gamma is the standard round-off constant γ_k = k·u/(1−k·u).
func gamma(k int) float64 {
	ku := float64(k) * unitRoundoff
	return ku / (1 - ku)
}

// runningSums holds Σv[:k] and Σv[:k]² of a centred input for k in
// [0, head] and in [tail0, tail1] — the slice bounds a lag search reads —
// so its size follows the lag window, not the input.
type runningSums struct {
	head, tail0 int
	s, q        []float64 // head+1 entries, then tail1−tail0+1 entries
	abs, sq     float64   // Σ|v| and Σv² over the whole input
}

func (r *runningSums) fill(v []float64, c float64, head, tail0, tail1 int) {
	r.head, r.tail0 = head, tail0
	r.s = growSlice(r.s, head+1+tail1-tail0+1)
	r.q = growSlice(r.q, len(r.s))
	var s, q, abs float64
	for k := 0; ; k++ {
		if k <= head {
			r.s[k], r.q[k] = s, q
		}
		if k >= tail0 && k <= tail1 {
			r.s[head+1+k-tail0], r.q[head+1+k-tail0] = s, q
		}
		if k == len(v) {
			break
		}
		d := v[k] - c
		s += d
		q += d * d
		abs += math.Abs(d)
	}
	r.abs, r.sq = abs, q
}

// slice returns Σv[k0:k1] and Σv[k0:k1]².
func (r *runningSums) slice(k0, k1 int) (s, q float64) {
	s0, q0 := r.at(k0)
	s1, q1 := r.at(k1)
	return s1 - s0, q1 - q0
}

func (r *runningSums) at(k int) (s, q float64) {
	if k <= r.head {
		return r.s[k], r.q[k]
	}
	return r.s[r.head+1+k-r.tail0], r.q[r.head+1+k-r.tail0]
}

// growSlice returns b resized to n, reallocating only when it is short.
func growSlice[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// CrossCorrelate returns the raw (unnormalised) cross-correlation
// r[k] = sum_i x[i]*y[i+k-maxLag] for k in [0, 2*maxLag].
func CrossCorrelate(x, y []float64, maxLag int) []float64 {
	out := make([]float64, 2*maxLag+1)
	for k := -maxLag; k <= maxLag; k++ {
		var s float64
		for i := range x {
			j := i + k
			if j < 0 || j >= len(y) {
				continue
			}
			s += x[i] * y[j]
		}
		out[k+maxLag] = s
	}
	return out
}
