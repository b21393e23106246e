package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"inaudible/internal/attack"
	"inaudible/internal/audio"
	"inaudible/internal/core"
	"inaudible/internal/defense"
	"inaudible/internal/sim"
	"inaudible/internal/speaker"
	"inaudible/internal/stream"
	"inaudible/internal/voice"
)

// The payload mix is drawn from the delivery grid of the Quick corpus the
// detector is trained on (command, voices, levels, powers, distances),
// with fresh trial noise from the seed: half baseline attacks, half the
// spoken command, delivered over the sim chain to the scenario's phone.
const (
	commandID       = "photo"
	voiceSPL        = 66   // spoken command level at 1 m, dB SPL
	attackPowerW    = 18.7 // baseline attack drive power
	variantsPerKind = 4    // distinct recordings per class
	chunkSamples    = 960
	cascadeFloorDB  = -55 // fixed cascade hot floor (dBFS)
	// dutyPlacements is how many offsets each duty recording is placed
	// at; the offsets are stratified across the session so every seed
	// gets the same spread of quiet lead-in and tail.
	dutyPlacements = 2
	// floorStride separates the windows the duty sessions take from one
	// rendered ambient floor.
	floorStride = 0.25 // seconds
)

var (
	voiceDistancesM  = []float64{1, 2.5}
	attackDistancesM = []float64{1.5, 2.5}
)

// payload is one replayable session: its GRD1 bytes, its label, and the
// final verdict a standalone guard gives it (the reference every served
// verdict must equal).
type payload struct {
	attack bool
	wire   []byte
	ref    verdict
}

// verdict is the part of a final verdict line the benchmark checks.
type verdict struct {
	Attack bool    `json:"attack"`
	Score  float64 `json:"score"`
}

// recordings renders variantsPerKind attack and voice recordings of the
// command at the phone, alternating attack and voice.
func recordings(sc *core.Scenario, rng *rand.Rand) ([]clip, error) {
	cmd, ok := voice.FindCommand(commandID)
	if !ok {
		return nil, fmt.Errorf("unknown command %q", commandID)
	}
	atk, err := sc.EmitBaseline(voice.MustSynthesize(cmd.Text, voice.DefaultVoice(), 48000),
		attackPowerW, attack.DefaultBaselineOptions(), speaker.FostexTweeter())
	if err != nil {
		return nil, fmt.Errorf("baseline emission: %w", err)
	}
	profiles := voice.Profiles()[:2]
	var spoken []*core.Emission
	for _, p := range profiles {
		spoken = append(spoken, sc.EmitVoice(voice.MustSynthesize(cmd.Text, p, 48000), voiceSPL))
	}
	var out []clip
	for i := 0; i < variantsPerKind; i++ {
		out = append(out,
			clip{sc.Deliver(atk, attackDistancesM[i%len(attackDistancesM)], rng.Int63()).Recording.Samples, true},
			clip{sc.Deliver(spoken[i%len(spoken)], voiceDistancesM[i/len(spoken)%len(voiceDistancesM)], rng.Int63()).Recording.Samples, false})
	}
	return out, nil
}

// clip is one delivered recording and its label.
type clip struct {
	x      []float64
	attack bool
}

// buildPayloads renders the workload's sessions from the seed. A
// continuous session tiles its recording to sessionSeconds. A duty
// session places one recording at an offset on the room's ambient floor
// as the phone's mic records it, so no frame is digital silence.
func buildPayloads(w workload, seed int64) ([]payload, error) {
	sc := core.DefaultScenario()
	sc.Seed = seed
	rng := rand.New(rand.NewSource(seed))
	clips, err := recordings(sc, rng)
	if err != nil {
		return nil, err
	}
	rate := sc.Device.ADCRate
	n := int(w.sessionSeconds * rate)
	var sessions []clip
	if !w.duty {
		for _, c := range clips {
			sessions = append(sessions, clip{tile(c.x, n), c.attack})
		}
	} else {
		k := dutyPlacements * len(clips)
		stride := int(floorStride * rate)
		floor := ambientFloor(sc, rng, n+(k-1)*stride)
		for j := 0; j < k; j++ {
			c := clips[j%len(clips)]
			room := n - len(c.x)
			if room < 0 {
				return nil, fmt.Errorf("%d-sample delivery does not fit a %.1f s session", len(c.x), w.sessionSeconds)
			}
			x := append([]float64(nil), floor[j*stride:j*stride+n]...)
			off := int((float64(j) + rng.Float64()) / float64(k) * float64(room+1))
			copy(x[off:], c.x)
			sessions = append(sessions, clip{x, c.attack})
		}
	}
	out := make([]payload, 0, len(sessions))
	for _, s := range sessions {
		pcm := quantize(s.x)
		if run := longestZeroRun(pcm); run > chunkSamples {
			return nil, fmt.Errorf("payload has %d exact-zero samples in a row (more than one %d-sample frame)", run, chunkSamples)
		}
		out = append(out, payload{attack: s.attack, wire: encodeGRD1(rate, pcm)})
	}
	return out, nil
}

// ambientFloor renders n samples of the room's ambient noise captured by
// the scenario's device: the sim chain's ambient and mic stages run over
// silence at the device rate. The filters' start-up transient is
// rendered and dropped.
func ambientFloor(sc *core.Scenario, rng *rand.Rand, n int) []float64 {
	const warmup = 4096
	rate := sc.Device.ADCRate
	o := sim.Options{}
	stages := append([]sim.Stage{sim.AmbientStage(rng, sc.AmbientSPL)}, sim.MicStages(sc.Device, rng, rate, sim.Streaming, o)...)
	rec := sim.RunSignal(sim.Compile(o, stages...), audio.FromSamples(rate, make([]float64, n+warmup)), rate, o)
	return rec.Samples[warmup : warmup+n]
}

// tile repeats x to n samples.
func tile(x []float64, n int) []float64 {
	out := make([]float64, n)
	for off := 0; off < n; off += len(x) {
		copy(out[off:], x)
	}
	return out
}

// quantize converts samples to the 16-bit PCM the wire carries.
func quantize(x []float64) []int16 {
	out := make([]int16, len(x))
	for i, v := range x {
		out[i] = int16(math.Max(-1, math.Min(1, v)) * 32767)
	}
	return out
}

// longestZeroRun is the longest run of exact-zero samples.
func longestZeroRun(pcm []int16) int {
	best, run := 0, 0
	for _, v := range pcm {
		if v != 0 {
			run = 0
			continue
		}
		run++
		best = max(best, run)
	}
	return best
}

// encodeGRD1 frames pcm in the guard's length-prefixed PCM protocol:
// magic, sample rate, then one chunk per 20 ms frame and a zero-length
// terminator.
func encodeGRD1(rate float64, pcm []int16) []byte {
	var b bytes.Buffer
	b.WriteString(stream.Magic)
	binary.Write(&b, binary.LittleEndian, uint32(rate))
	for off := 0; off < len(pcm); off += chunkSamples {
		part := pcm[off:min(off+chunkSamples, len(pcm))]
		binary.Write(&b, binary.LittleEndian, uint32(2*len(part)))
		binary.Write(&b, binary.LittleEndian, part)
	}
	binary.Write(&b, binary.LittleEndian, uint32(0))
	return b.Bytes()
}

// decodeGRD1 recovers the samples the server decodes from a GRD1 body.
func decodeGRD1(wire []byte) (rate float64, x []float64, err error) {
	r := bytes.NewReader(wire)
	var magic [4]byte
	var r32 uint32
	if _, err := r.Read(magic[:]); err != nil || string(magic[:]) != stream.Magic {
		return 0, nil, fmt.Errorf("not a GRD1 session")
	}
	if err := binary.Read(r, binary.LittleEndian, &r32); err != nil {
		return 0, nil, err
	}
	for {
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return 0, nil, err
		}
		if n == 0 {
			return float64(r32), x, nil
		}
		part := make([]int16, n/2)
		if err := binary.Read(r, binary.LittleEndian, part); err != nil {
			return 0, nil, err
		}
		for _, v := range part {
			x = append(x, float64(v)/32767)
		}
	}
}

// reference runs one payload through a standalone cascade guard with the
// server's engagement config and returns its final verdict.
func reference(p payload, det defense.Detector) (verdict, error) {
	rate, x, err := decodeGRD1(p.wire)
	if err != nil {
		return verdict{}, err
	}
	g := stream.NewCascadeGuard(stream.CascadeConfig{
		Guard:      stream.GuardConfig{Rate: rate, Detector: det},
		HotFloorDB: cascadeFloorDB,
	})
	frame := g.FrameSamples()
	for off := 0; off < len(x); off += frame {
		g.Push(x[off:min(off+frame, len(x))])
	}
	v := g.Finalize()
	score := v.Score
	if math.IsInf(score, 0) || math.IsNaN(score) {
		score = -1e308 // the wire's stand-in for a non-finite score
	}
	return verdict{Attack: v.Attack, Score: score}, nil
}
