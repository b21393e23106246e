// Package defense implements the paper's software-only detection of
// inaudible voice command injection.
//
// A command delivered through microphone non-linearity is y ~ m(t) +
// beta*m(t)^2 (+ noise): the quadratic term that demodulated the
// ultrasound necessarily also contributes the squared baseband. That
// second copy leaves ineradicable traces:
//
//   - power in the infra-voice trace band (16-60 Hz, below any speech
//     fundamental), because m^2 concentrates energy at the envelope rate;
//   - correlation between that low band and the squared envelope of the
//     voice band — they are literally the same physical quantity;
//   - excess energy above the speech band (m^2 occupies [0, 2B]).
//
// Room noise masks raw band powers, so the discriminative features are
// noise-subtracted: the m^2 traces switch on and off with the speech,
// while ambient noise is stationary, so power measured in silent frames
// estimates the noise floor that active-frame power is corrected by.
//
// A linear classifier over these features separates attack recordings
// from legitimate ones; package-level helpers also implement the adaptive
// attacker that tries to cancel the traces, and the analysis showing the
// residue it cannot remove.
package defense

import (
	"fmt"
	"math"

	"inaudible/internal/audio"
	"inaudible/internal/dsp"
)

// Features is the defense's per-recording feature vector.
type Features struct {
	// TraceSNR is log10 of the noise-subtracted trace-band (16-60 Hz)
	// power over the noise-subtracted voice-band power: how much
	// speech-synchronised energy lives below any plausible F0, relative
	// to the speech itself.
	TraceSNR float64
	// HighSNR is the same measure for the 8.5 kHz..Nyquist band — the
	// upper half of the m^2 spectrum, which legitimate speech reaching a
	// 8 kHz-bounded channel does not populate.
	HighSNR float64
	// LowEnvCorr is the peak correlation between the trace-band waveform
	// and the band-limited squared envelope of the voice band.
	LowEnvCorr float64
	// Sub50LogRatio is the raw log10 trace-band/voice-band power ratio
	// (no noise subtraction); useful in quiet conditions.
	Sub50LogRatio float64
	// HighLogRatio is the raw log10 high-band/voice-band power ratio.
	HighLogRatio float64
}

// Vector returns the features in canonical order for the classifiers.
func (f Features) Vector() []float64 {
	return []float64{f.TraceSNR, f.HighSNR, f.LowEnvCorr, f.Sub50LogRatio, f.HighLogRatio}
}

// FeatureNames returns human-readable names matching Vector()'s order.
func FeatureNames() []string {
	return []string{"trace-snr", "high-snr", "low-env-corr", "sub50-log-ratio", "high-log-ratio"}
}

// String implements fmt.Stringer.
func (f Features) String() string {
	return fmt.Sprintf("Features(trace=%.2f high=%.2f corr=%.2f sub50=%.2f hraw=%.2f)",
		f.TraceSNR, f.HighSNR, f.LowEnvCorr, f.Sub50LogRatio, f.HighLogRatio)
}

const (
	traceLo = 16.0 // bottom of the trace band (just above the mic's AC corner)
	traceHi = 60.0 // top of the trace band (below any speech F0, >= ~85 Hz)
	voiceLo = 60.0
	voiceHi = 8000.0
	highLo  = 8500.0
)

// Analysis geometry shared by the batch extractor and the streaming
// analyzer (internal/stream); keeping them here is what lets the
// streaming path reproduce batch features on identical input.
const (
	// ExtractFFTSize is the Welch transform length of Extract.
	ExtractFFTSize = 16384
	// FrameFFTSize and FrameHop are the STFT geometry of the
	// noise-subtracted frame analysis.
	FrameFFTSize = 4096
	FrameHop     = FrameFFTSize / 2
	// FloorLog is the log-ratio floor reported when a band has no
	// speech-synchronised energy (or the recording is silent/too short).
	FloorLog = -6.0
	// CorrMaxLagSeconds bounds the trace/envelope correlation lag search.
	CorrMaxLagSeconds = 0.05
)

// BandPlan reports the analysis band edges in Hz.
type BandPlan struct {
	TraceLo, TraceHi float64 // infra-voice trace band
	VoiceLo, VoiceHi float64 // speech band
	HighLo           float64 // bottom of the super-voice band
}

// Bands returns the band plan used by Extract; HighTop (the top of the
// super-voice band) depends on the recording rate: rate/2 * 0.95.
func Bands() BandPlan {
	return BandPlan{TraceLo: traceLo, TraceHi: traceHi, VoiceLo: voiceLo, VoiceHi: voiceHi, HighLo: highLo}
}

// HighTop returns the top of the super-voice band for a given sample
// rate, matching Extract's choice.
func HighTop(rate float64) float64 { return rate / 2 * 0.95 }

// Extract computes the defense features of a recording (digital signal at
// the device's ADC rate).
func Extract(rec *audio.Signal) Features {
	var f Features
	if rec.Len() == 0 || rec.RMS() == 0 {
		f.TraceSNR, f.HighSNR = FloorLog, FloorLog
		f.Sub50LogRatio, f.HighLogRatio = FloorLog, FloorLog
		return f
	}
	const fftSize = ExtractFFTSize
	psd := dsp.Welch(rec.Samples, fftSize)
	voice := dsp.BandPower(psd, rec.Rate, fftSize, voiceLo, voiceHi)
	if voice <= 0 {
		f.TraceSNR, f.HighSNR = FloorLog, FloorLog
		f.Sub50LogRatio, f.HighLogRatio = FloorLog, FloorLog
		return f
	}
	hiTop := HighTop(rec.Rate)
	sub50 := dsp.BandPower(psd, rec.Rate, fftSize, traceLo, traceHi)
	var high float64
	if hiTop > highLo {
		high = dsp.BandPower(psd, rec.Rate, fftSize, highLo, hiTop)
	}
	logRatio := func(p float64) float64 { return math.Log10((p + 1e-18) / voice) }
	f.Sub50LogRatio = logRatio(sub50)
	f.HighLogRatio = logRatio(high)
	f.LowEnvCorr = lowEnvelopeCorrelation(rec)
	f.TraceSNR, f.HighSNR = noiseSubtractedRatios(rec, hiTop)
	return f
}

// noiseSubtractedRatios measures the speech-synchronised (active minus
// silent) power in the trace and high bands, normalised by the
// speech-synchronised voice-band power. Frames whose voice-band power is
// above the median count as active; the silent frames estimate the
// stationary noise floor. The first and last 10% of frames are excluded
// (transients, fades).
func noiseSubtractedRatios(rec *audio.Signal, hiTop float64) (traceSNR, highSNR float64) {
	const fftSize = FrameFFTSize
	const floorLog = FloorLog
	traceSNR, highSNR = floorLog, floorLog
	if rec.Len() < 4*fftSize {
		return
	}
	sg := dsp.STFT(rec.Samples, rec.Rate, fftSize, FrameHop)
	n := sg.Frames()
	skip := n / 10
	frames := sg.Power[skip : n-skip]
	if len(frames) < 8 {
		return
	}
	band := func(row []float64, lo, hi float64) float64 {
		k0 := dsp.FrequencyBin(lo, fftSize, rec.Rate)
		k1 := dsp.FrequencyBin(hi, fftSize, rec.Rate)
		var s float64
		for k := k0; k <= k1 && k < len(row); k++ {
			s += row[k]
		}
		return s
	}
	m := len(frames)
	voiceP := make([]float64, m)
	lowP := make([]float64, m)
	highP := make([]float64, m)
	for i, row := range frames {
		voiceP[i] = band(row, voiceLo, voiceHi)
		lowP[i] = band(row, traceLo, traceHi)
		if hiTop > highLo {
			highP[i] = band(row, highLo, hiTop)
		}
	}
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
	snr := func(a, s float64) float64 {
		diff := mean(a, act.n) - mean(s, sil.n)
		if diff <= 0 {
			return floorLog
		}
		v := math.Log10(diff / cleanVoice)
		if v < floorLog {
			return floorLog
		}
		return v
	}
	traceSNR = snr(act.low, sil.low)
	if hiTop > highLo {
		highSNR = snr(act.high, sil.high)
	}
	return
}

// median returns the median of x (copying, not mutating).
func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	c := make([]float64, len(x))
	copy(c, x)
	// Insertion sort is fine for frame counts.
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c[len(c)/2]
}

// lowEnvelopeCorrelation measures how well the recording's trace band
// tracks the squared envelope of its voice band. For an attack recording
// both derive from the same m(t)^2 term, so the correlation is high; for
// legitimate speech the low band is unrelated noise.
//
// The ±50 ms search runs at the ADC rate (4,801 lags at 48 kHz). That
// window is wide enough for dsp.MaxCorrelationLag's screen: FFT
// estimates of every lag's r with a certified error bound (about 1e-7),
// and the exact Pearson only at lags that bound cannot rule out —
// typically one. The value is the exhaustive search's, bit for bit;
// inputs the bound cannot certify (non-finite samples, slices that
// cancel to near-constant) take the exhaustive loop.
func lowEnvelopeCorrelation(rec *audio.Signal) float64 {
	rate := rec.Rate
	vb := dsp.BandPassFIR(1023, voiceLo/rate, voiceHi/rate).Apply(rec.Samples)
	env := dsp.Envelope(vb)
	for i, v := range env {
		env[i] = v * v
	}
	// Band-limit both to the trace band.
	low := dsp.BandPassFIR(4095, traceLo/rate, traceHi/rate).Apply(rec.Samples)
	envLow := dsp.BandPassFIR(4095, traceLo/rate, traceHi/rate).Apply(env)
	// Allow up to 50 ms of relative delay (filter chains differ).
	maxLag := int(rate * CorrMaxLagSeconds)
	c, _ := dsp.MaxCorrelationLag(low, envLow, maxLag)
	return c
}
