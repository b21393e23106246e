package dsp

import (
	"fmt"
	"math"
)

// StreamResampler is the streaming twin of the windowed-sinc Resample
// path: it converts an unbounded sample stream between rates with bounded
// state (one kernel-width history window) and, after Flush, produces a
// stream bit-identical to Resample on the concatenated input — same
// kernel, same accumulation order, same edge handling. It covers the
// arbitrary-ratio sinc path (including all downsampling, e.g. the mic
// model's 192 kHz -> 48 kHz ADC); rate-preserving construction is a
// pass-through.
//
// A StreamResampler is single-session state and not safe for concurrent
// use.
type StreamResampler struct {
	ratio, cutoff float64
	identity      bool

	buf      []float64 // retained input tail, buf[0] is absolute index bufStart
	bufStart int
	inTotal  int // input samples consumed so far
	nextOut  int // next output index to produce
	out      []float64
	flushed  bool
}

// streamResampleHalfTaps mirrors resampleSinc's kernel half-width.
const streamResampleHalfTaps = 32

// streamResampleBeta mirrors resampleSinc's Kaiser shape parameter.
const streamResampleBeta = 8.6

// streamResampleDen is the Kaiser window's normaliser besselI0(beta).
var streamResampleDen = besselI0(streamResampleBeta)

// NewStreamResampler prepares a converter from rate from to rate to.
// Integer upsampling ratios >= 2 take the batch path's polyphase design,
// which this streaming mirror does not reproduce; the simulation chain
// never upsamples mid-stream, so they are rejected.
func NewStreamResampler(from, to float64) *StreamResampler {
	if from <= 0 || to <= 0 {
		panic(fmt.Sprintf("dsp: StreamResampler rates must be positive (from=%v to=%v)", from, to))
	}
	if from == to {
		return &StreamResampler{identity: true, ratio: 1}
	}
	ratio := to / from
	if f := math.Round(ratio); f >= 2 && math.Abs(ratio-f) < 1e-12 {
		panic(fmt.Sprintf("dsp: StreamResampler does not mirror the integer upsample path (ratio %v)", ratio))
	}
	return &StreamResampler{ratio: ratio, cutoff: math.Min(1, ratio)}
}

// Ratio returns the output/input rate ratio.
func (s *StreamResampler) Ratio() float64 { return s.ratio }

// Push consumes x and returns the converted samples that became
// available. The returned slice is reused by the next Push/Flush call.
// After warm-up Push does not allocate for steady block sizes.
func (s *StreamResampler) Push(x []float64) []float64 {
	if s.flushed {
		panic("dsp: StreamResampler.Push after Flush (Reset first)")
	}
	if s.identity {
		return x
	}
	s.buf = append(s.buf, x...)
	s.inTotal += len(x)
	s.out = s.out[:0]
	// Output n needs input through index floor(n/ratio)+halfTaps; emit
	// every output whose full kernel window has arrived.
	for {
		i1 := int(math.Floor(float64(s.nextOut)/s.ratio)) + streamResampleHalfTaps
		if i1 >= s.inTotal {
			break
		}
		s.out = append(s.out, s.kernel(s.nextOut, s.inTotal))
		s.nextOut++
	}
	// Drop history below the next output's lowest kernel index.
	keepFrom := int(math.Floor(float64(s.nextOut)/s.ratio)) - streamResampleHalfTaps + 1
	if keepFrom > s.inTotal {
		keepFrom = s.inTotal
	}
	if keepFrom > s.bufStart {
		n := copy(s.buf, s.buf[keepFrom-s.bufStart:])
		s.buf = s.buf[:n]
		s.bufStart = keepFrom
	}
	return s.out
}

// Flush emits the tail outputs whose kernel windows run past the end of
// the stream, exactly as the batch path clips them, bringing the total
// output length to round(total input * ratio). After Flush only Reset may
// be called.
func (s *StreamResampler) Flush() []float64 {
	if s.flushed {
		panic("dsp: StreamResampler.Flush called twice")
	}
	s.flushed = true
	if s.identity {
		return nil
	}
	s.out = s.out[:0]
	outLen := int(math.Round(float64(s.inTotal) * s.ratio))
	for ; s.nextOut < outLen; s.nextOut++ {
		s.out = append(s.out, s.kernel(s.nextOut, s.inTotal))
	}
	return s.out
}

// Reset returns the converter to its initial state, keeping buffers.
func (s *StreamResampler) Reset() {
	s.buf = s.buf[:0]
	s.bufStart = 0
	s.inTotal = 0
	s.nextOut = 0
	s.out = s.out[:0]
	s.flushed = false
}

// kernel computes output sample n with resampleSinc's exact arithmetic:
// same window, same skip rules, same accumulation order.
func (s *StreamResampler) kernel(n, totalLen int) float64 {
	center := float64(n) / s.ratio
	i0 := int(math.Floor(center)) - streamResampleHalfTaps + 1
	i1 := int(math.Floor(center)) + streamResampleHalfTaps
	var acc float64
	for i := i0; i <= i1; i++ {
		if i < 0 || i >= totalLen {
			continue
		}
		t := (float64(i) - center) * s.cutoff
		u := (float64(i) - center) / float64(streamResampleHalfTaps)
		if u < -1 || u > 1 {
			continue
		}
		w := besselI0(streamResampleBeta*math.Sqrt(1-u*u)) / streamResampleDen
		k := s.cutoff * sinc(t) * w
		acc += k * s.buf[i-s.bufStart]
	}
	return acc
}
