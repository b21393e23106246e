// Package stream is the online twin of the batch defense pipeline: it
// processes audio in fixed-size frames with bounded per-session memory
// and emits the same defense.Features vector the batch extractor
// computes on a fully-buffered recording.
//
// Batch path (defense.Extract):      whole recording -> Welch PSD,
// STFT frame statistics, Hilbert-envelope correlation -> Features.
//
// Streaming path (stream.Analyzer):  frames -> incremental Welch/STFT
// accumulators (internal/dsp) and two multirate correlation chains ->
// Features. The chains compute the correlation traces at ~600 Hz
// without filtering the ADC-rate stream first:
//
//   - trace band: a decimating anti-alias low-pass that evaluates only
//     the kept outputs, then a short 16-60 Hz band-pass at ~600 Hz;
//   - squared envelope: one overlap-save pass of the complex kernel
//     voice band + j*(Hilbert ∗ voice band), folded so it yields the
//     analytic signal a at rate/k directly (k = 4 at 48 kHz), then |a|²
//     through the same decimator and band-pass.
//
// Parity with the batch extractor on identical input (see
// TestAnalyzerMatchesBatchExtract):
//
//   - TraceSNR, HighSNR, Sub50LogRatio, HighLogRatio: exact — the
//     streaming accumulators replicate the batch arithmetic operation
//     for operation (tested at 1e-9, bit-identical in practice).
//   - LowEnvCorr: within 0.15 absolute — the streaming path substitutes
//     a causal FIR Hilbert transformer for the batch full-signal
//     analytic envelope and correlates decimated (~600 Hz) traces. The
//     class gap this feature separates is >1.0 on the paper's corpora,
//     so the tolerance does not move verdicts. The anti-alias stages
//     reject what decimation folds onto the trace band by 150 dB, more
//     than the batch 4095-tap band-pass rejects it; the parity is tested
//     from just above 16 kHz to 192 kHz (TestAnalyzerMatchesBatchExtract)
//     and over the simulated corpus (TestAnalyzerCorpusParity).
//
// Memory per session is bounded: the accumulators hold one analysis
// frame each, the envelope filter one 8k-sample overlap-save segment,
// the direct-form decimators a few thousand samples each, the
// correlation traces are decimated and capped at MaxCorrSeconds, and
// the per-frame band statistics are capped at MaxStatSeconds (sessions
// longer than the caps compute those features over the capped prefix;
// the Welch-derived features always cover the whole session in fixed
// memory). After warm-up, Push does not allocate.
package stream

import (
	"fmt"
	"math"
	"sort"

	"inaudible/internal/audio"
	"inaudible/internal/defense"
	"inaudible/internal/dsp"
)

// corrRate is the target sample rate (Hz) of the decimated correlation
// traces; the actual rate is rate/dec (corrFactors), 600 Hz at 48 kHz.
// Both traces are band-limited to the 16-60 Hz trace band, so ~600 Hz
// keeps them heavily oversampled while making the final lag search
// ~dec² cheaper than at the ADC rate. At 600 Hz the ±50 ms search
// spans 61 lags, below dsp.MaxCorrelationLag's screening threshold, so
// it runs the exhaustive per-lag loop; either way the result is the
// same bits.
const corrRate = 600.0

// Filter lengths of the batch extractor's envelope correlation: the
// voice band and Hilbert transformer (the envelope kernel is their
// combination) and the trace-band band-pass, whose response the
// decimated chains reproduce at rate/dec with refTraceTaps/dec taps.
const (
	envTaps      = 1023
	refTraceTaps = 4095
)

// envBlock is the preferred fresh-sample count per envelope segment:
// with the 2045-tap kernel it sizes the transform at 8192 points.
const envBlock = 6144

// corrFactors picks the envelope factor k and the trace decimation
// dec = k*m for a session rate. The analytic envelope runs at rate/k:
// k is the largest power of two with rate/k > (VoiceHi-VoiceLo) +
// TraceHi, so the trace band of |a|² is alias-free by construction. m
// brings rate/dec closest to corrRate (at 44.1 kHz, rate/600 truncates
// to a prime, which no power-of-two k divides).
func corrFactors(rate float64, b defense.BandPlan) (k, dec int) {
	k = 1
	for rate/float64(2*k) > b.VoiceHi-b.VoiceLo+b.TraceHi {
		k *= 2
	}
	m := int(math.Round(rate / (corrRate * float64(k))))
	if m < 1 {
		m = 1
	}
	return k, k * m
}

// AnalyzerConfig sizes a streaming feature extractor.
type AnalyzerConfig struct {
	// Rate is the session sample rate in Hz. The analyzer needs the
	// voice band below Nyquist: Rate must exceed 2*VoiceHi (16 kHz).
	Rate float64
	// MaxCorrSeconds caps the envelope-correlation trace memory;
	// <= 0 selects 60 s.
	MaxCorrSeconds float64
	// MaxStatSeconds caps the per-frame band-power statistics (24 bytes
	// per 2048-sample hop); <= 0 selects 600 s. Sessions longer than
	// the cap compute the noise-subtracted features over their first
	// MaxStatSeconds (the Welch-derived features always cover the whole
	// session in fixed memory).
	MaxStatSeconds float64
}

// Analyzer incrementally computes defense features for one audio
// session. It is single-session state: not safe for concurrent use, but
// cheap to Reset and pool across sessions. Feed samples with Push in
// any chunking, snapshot features mid-stream with Features, and call
// Finalize at end of session for the full-parity vector.
type Analyzer struct {
	cfg    AnalyzerConfig
	bands  defense.BandPlan
	hiTop  float64
	total  int
	energy float64

	welch *dsp.WelchAccumulator

	// Frame statistics for the noise-subtracted ratios: per-STFT-frame
	// band powers, folded from streamed rows (3 floats per 2048-sample
	// hop — the only per-session state that grows with duration).
	stft                         *dsp.STFTAccumulator
	voiceP, lowP, highP          []float64
	maxStatFrames                int
	k0v, k1v, k0t, k1t, k0h, k1h int

	// Envelope-correlation chains; both emit at rate/dec, output j
	// aligned with input sample j*dec.
	lowBand   *dsp.BandDecimator     // x -> trace band
	env       *dsp.AnalyticDecimator // x -> voice-band analytic signal at rate/k
	envBand   *dsp.BandDecimator     // |a|² at rate/k -> trace band
	envSq     []float64              // squared-envelope staging
	dec       int                    // decimation factor of the correlation traces
	corrCap   int                    // max retained decimated samples per trace
	lowD      []float64              // decimated trace-band stream
	envD      []float64              // decimated band-limited squared-envelope stream
	corrDone  bool
	finalized bool
}

// NewAnalyzer builds a streaming extractor for the given session rate.
func NewAnalyzer(cfg AnalyzerConfig) *Analyzer {
	b := defense.Bands()
	if cfg.Rate <= 2*b.VoiceHi {
		panic(fmt.Sprintf("stream: Analyzer rate %v must exceed %v Hz", cfg.Rate, 2*b.VoiceHi))
	}
	if cfg.MaxCorrSeconds <= 0 {
		cfg.MaxCorrSeconds = 60
	}
	if cfg.MaxStatSeconds <= 0 {
		cfg.MaxStatSeconds = 600
	}
	rate := cfg.Rate
	a := &Analyzer{
		cfg:   cfg,
		bands: b,
		hiTop: defense.HighTop(rate),
		welch: dsp.NewWelchAccumulator(defense.ExtractFFTSize),
	}
	// Frame band-bin ranges, fixed for the session (the batch extractor
	// recomputes the same values per row).
	a.k0v = dsp.FrequencyBin(b.VoiceLo, defense.FrameFFTSize, rate)
	a.k1v = dsp.FrequencyBin(b.VoiceHi, defense.FrameFFTSize, rate)
	a.k0t = dsp.FrequencyBin(b.TraceLo, defense.FrameFFTSize, rate)
	a.k1t = dsp.FrequencyBin(b.TraceHi, defense.FrameFFTSize, rate)
	a.k0h = dsp.FrequencyBin(b.HighLo, defense.FrameFFTSize, rate)
	a.k1h = dsp.FrequencyBin(a.hiTop, defense.FrameFFTSize, rate)
	a.stft = dsp.NewSTFTAccumulator(defense.FrameFFTSize, defense.FrameHop, a.foldRow)

	a.maxStatFrames = int(cfg.MaxStatSeconds*rate)/defense.FrameHop + 1
	frameCap := int(2*cfg.MaxCorrSeconds*rate)/defense.FrameHop + 2
	if frameCap > a.maxStatFrames {
		frameCap = a.maxStatFrames
	}
	a.voiceP = make([]float64, 0, frameCap)
	a.lowP = make([]float64, 0, frameCap)
	a.highP = make([]float64, 0, frameCap)

	// The chains reproduce lowEnvelopeCorrelation's filters at the
	// correlation rate: the same voice band and Hilbert transformer as
	// one complex kernel, and the trace band-pass scaled to rate/dec.
	k, dec := corrFactors(rate, b)
	a.dec = dec
	traceTaps := refTraceTaps / dec
	if traceTaps%2 == 0 {
		traceTaps++
	}
	a.lowBand = dsp.NewBandDecimator(rate, dec, b.TraceLo, b.TraceHi, traceTaps)
	kernel := dsp.AnalyticKernel(dsp.BandPassFIR(envTaps, b.VoiceLo/rate, b.VoiceHi/rate), dsp.HilbertFIR(envTaps))
	a.env = dsp.NewAnalyticDecimator(kernel, k, envBlock)
	a.envBand = dsp.NewBandDecimator(rate/float64(k), dec/k, b.TraceLo, b.TraceHi, traceTaps)

	a.corrCap = int(cfg.MaxCorrSeconds*rate)/a.dec + 1
	a.lowD = make([]float64, 0, a.corrCap)
	a.envD = make([]float64, 0, a.corrCap)
	return a
}

// Rate returns the session sample rate.
func (a *Analyzer) Rate() float64 { return a.cfg.Rate }

// Samples returns the number of samples pushed so far.
func (a *Analyzer) Samples() int { return a.total }

// foldRow folds one STFT power row into the per-frame band statistics,
// with the exact summation of the batch extractor's band helper. Past
// MaxStatSeconds the statistics stop growing (bounded session memory).
func (a *Analyzer) foldRow(row []float64) {
	if len(a.voiceP) >= a.maxStatFrames {
		return
	}
	var v, l, h float64
	for k := a.k0v; k <= a.k1v && k < len(row); k++ {
		v += row[k]
	}
	for k := a.k0t; k <= a.k1t && k < len(row); k++ {
		l += row[k]
	}
	if a.hiTop > a.bands.HighLo {
		for k := a.k0h; k <= a.k1h && k < len(row); k++ {
			h += row[k]
		}
	}
	a.voiceP = append(a.voiceP, v)
	a.lowP = append(a.lowP, l)
	a.highP = append(a.highP, h)
}

// Push feeds the next samples of the session. After warm-up it does not
// allocate (frame statistics grow amortised between 2x MaxCorrSeconds
// and MaxStatSeconds, then stop).
func (a *Analyzer) Push(x []float64) {
	if a.finalized {
		panic("stream: Analyzer.Push after Finalize (Reset first)")
	}
	a.advance(x)
	a.welch.Push(x)
	a.stft.Push(x)
}

// PushStaged is the column-batched twin of Push: the Welch and STFT
// accumulators stage their FFT columns into ce instead of transforming
// inline, and the accumulation completes in CompleteStaged after the
// shard has run one batched transform per size across every session.
// The correlation chains still run inline — analytic envelope -> |a|²
// -> decimator is a sequential data dependency (each stage's input is
// the previous one's output within the same chunk), so their segments
// can never be known ahead of the batched pass. PushStaged(x, ce)
// followed by ce.Run() and CompleteStaged(ce) is bit-identical to
// Push(x).
func (a *Analyzer) PushStaged(x []float64, ce *ColumnEngines) {
	if a.finalized {
		panic("stream: Analyzer.PushStaged after Finalize (Reset first)")
	}
	a.advance(x)
	a.welch.PushStaged(x, ce.Engine(defense.ExtractFFTSize))
	a.stft.PushStaged(x, ce.Engine(defense.FrameFFTSize))
}

// advance is the part of Push and PushStaged that does not touch the
// spectral accumulators: the energy and sample counts, and the
// correlation chains until both traces reach their cap.
func (a *Analyzer) advance(x []float64) {
	for _, v := range x {
		a.energy += v * v
	}
	a.total += len(x)
	if !a.corrDone {
		a.lowD = appendCapped(a.lowD, a.lowBand.Push(x), a.corrCap)
		a.foldEnv(a.env.Push(x))
		a.corrDone = len(a.lowD) >= a.corrCap && len(a.envD) >= a.corrCap
	}
}

// CompleteStaged folds the spectra computed by the batched pass into
// the accumulators, finishing every PushStaged since the last
// CompleteStaged. ce must be the same engine set, already Run.
func (a *Analyzer) CompleteStaged(ce *ColumnEngines) {
	a.welch.FlushStaged(ce.Engine(defense.ExtractFFTSize))
	a.stft.FlushStaged(ce.Engine(defense.FrameFFTSize))
}

// foldEnv squares fresh analytic-signal samples and advances the
// envelope's trace-band decimator.
func (a *Analyzer) foldEnv(z []complex128) {
	a.envSq = a.envSq[:0]
	for _, v := range z {
		re, im := real(v), imag(v)
		a.envSq = append(a.envSq, re*re+im*im)
	}
	a.envD = appendCapped(a.envD, a.envBand.Push(a.envSq), a.corrCap)
}

// appendCapped appends y to dst up to limit elements in total.
func appendCapped(dst, y []float64, limit int) []float64 {
	if room := limit - len(dst); len(y) > room {
		y = y[:max(room, 0)]
	}
	return append(dst, y...)
}

// Features returns a mid-stream snapshot: the frame statistics and PSD
// cover every sample pushed so far; the correlation covers the aligned
// prefix that has cleared the filter chains: at 48 kHz up to ~9,700
// samples (0.2 s) behind — one 6,148-sample envelope segment of
// buffering plus ~3,500 samples of filter delay. Unlike Push, a
// snapshot allocates (it copies the PSD).
func (a *Analyzer) Features() defense.Features { return a.features() }

// Finalize flushes the filter chains and returns the feature vector for
// the whole session — the streaming equivalent of defense.Extract on
// the concatenation of every pushed sample. After Finalize, Push
// panics until Reset.
func (a *Analyzer) Finalize() defense.Features {
	if !a.finalized {
		if !a.corrDone {
			a.lowD = appendCapped(a.lowD, a.lowBand.Flush(), a.corrCap)
			a.foldEnv(a.env.Flush())
			a.envD = appendCapped(a.envD, a.envBand.Flush(), a.corrCap)
		}
		a.finalized = true
	}
	return a.features()
}

// Reset clears all per-session state so the analyzer (and its buffers)
// can serve a new session.
func (a *Analyzer) Reset() {
	a.total = 0
	a.energy = 0
	a.welch.Reset()
	a.stft.Reset()
	a.voiceP = a.voiceP[:0]
	a.lowP = a.lowP[:0]
	a.highP = a.highP[:0]
	a.lowBand.Reset()
	a.env.Reset()
	a.envBand.Reset()
	a.envSq = a.envSq[:0]
	a.lowD = a.lowD[:0]
	a.envD = a.envD[:0]
	a.corrDone = false
	a.finalized = false
}

// features assembles the defense vector from the accumulators,
// mirroring defense.Extract's structure and early exits.
func (a *Analyzer) features() defense.Features {
	var f defense.Features
	if a.total == 0 || a.energy == 0 {
		f.TraceSNR, f.HighSNR = defense.FloorLog, defense.FloorLog
		f.Sub50LogRatio, f.HighLogRatio = defense.FloorLog, defense.FloorLog
		return f
	}
	psd := a.welch.PSD()
	rate := a.cfg.Rate
	voice := dsp.BandPower(psd, rate, defense.ExtractFFTSize, a.bands.VoiceLo, a.bands.VoiceHi)
	if voice <= 0 {
		f.TraceSNR, f.HighSNR = defense.FloorLog, defense.FloorLog
		f.Sub50LogRatio, f.HighLogRatio = defense.FloorLog, defense.FloorLog
		return f
	}
	sub50 := dsp.BandPower(psd, rate, defense.ExtractFFTSize, a.bands.TraceLo, a.bands.TraceHi)
	var high float64
	if a.hiTop > a.bands.HighLo {
		high = dsp.BandPower(psd, rate, defense.ExtractFFTSize, a.bands.HighLo, a.hiTop)
	}
	logRatio := func(p float64) float64 { return math.Log10((p + 1e-18) / voice) }
	f.Sub50LogRatio = logRatio(sub50)
	f.HighLogRatio = logRatio(high)
	f.LowEnvCorr = a.corr()
	f.TraceSNR, f.HighSNR = a.noiseSubtracted()
	return f
}

// corr runs the lag-searched Pearson correlation over the decimated
// traces (the streaming stand-in for dsp.MaxCorrelationLag at the ADC
// rate inside the batch extractor).
func (a *Analyzer) corr() float64 {
	n := len(a.lowD)
	if len(a.envD) < n {
		n = len(a.envD)
	}
	if n == 0 {
		return 0
	}
	maxLag := int(a.cfg.Rate / float64(a.dec) * defense.CorrMaxLagSeconds)
	c, _ := dsp.MaxCorrelationLag(a.lowD[:n], a.envD[:n], maxLag)
	return c
}

// noiseSubtracted replicates defense.Extract's noiseSubtractedRatios
// over the streamed per-frame band powers, operation for operation.
func (a *Analyzer) noiseSubtracted() (traceSNR, highSNR float64) {
	traceSNR, highSNR = defense.FloorLog, defense.FloorLog
	if a.total < 4*defense.FrameFFTSize {
		return
	}
	n := len(a.voiceP)
	skip := n / 10
	lo, hi := skip, n-skip
	if hi-lo < 8 {
		return
	}
	voiceP, lowP, highP := a.voiceP[lo:hi], a.lowP[lo:hi], a.highP[lo:hi]
	med := median(voiceP)
	var act, sil struct {
		voice, low, high float64
		n                int
	}
	for i := range voiceP {
		if voiceP[i] > med {
			act.voice += voiceP[i]
			act.low += lowP[i]
			act.high += highP[i]
			act.n++
		} else {
			sil.voice += voiceP[i]
			sil.low += lowP[i]
			sil.high += highP[i]
			sil.n++
		}
	}
	if act.n == 0 || sil.n == 0 {
		return
	}
	mean := func(sum float64, n int) float64 { return sum / float64(n) }
	cleanVoice := mean(act.voice, act.n) - mean(sil.voice, sil.n)
	if cleanVoice <= 0 {
		return
	}
	snr := func(as, ss float64) float64 {
		diff := mean(as, act.n) - mean(ss, sil.n)
		if diff <= 0 {
			return defense.FloorLog
		}
		v := math.Log10(diff / cleanVoice)
		if v < defense.FloorLog {
			return defense.FloorLog
		}
		return v
	}
	traceSNR = snr(act.low, sil.low)
	if a.hiTop > a.bands.HighLo {
		highSNR = snr(act.high, sil.high)
	}
	return
}

// median returns the median of x without mutating it, with the batch
// extractor's exact semantics (sorted[len/2]) — but O(n log n), since a
// streaming session can span far more frames than a batch recording.
func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	c := make([]float64, len(x))
	copy(c, x)
	sort.Float64s(c)
	return c[len(c)/2]
}

// Extract streams sig through a fresh Analyzer in chunk-sized pushes and
// returns the finalized features — the drop-in streaming twin of
// defense.Extract for whole recordings. chunk <= 0 selects 960 samples
// (20 ms at 48 kHz).
func Extract(sig *audio.Signal, chunk int) defense.Features {
	if chunk <= 0 {
		chunk = 960
	}
	a := NewAnalyzer(AnalyzerConfig{Rate: sig.Rate})
	for off := 0; off < len(sig.Samples); off += chunk {
		end := off + chunk
		if end > len(sig.Samples) {
			end = len(sig.Samples)
		}
		a.Push(sig.Samples[off:end])
	}
	return a.Finalize()
}
