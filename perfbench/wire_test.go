package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"inaudible/internal/defense"
	"inaudible/internal/stream"
)

// testPCM is a noisy two-tone burst with a quiet tail, n samples at
// 48 kHz.
func testPCM(n int, seed int64) []int16 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		t := float64(i) / 48000
		x[i] = 0.002 * rng.NormFloat64()
		if i < n/2 {
			x[i] += 0.3*math.Sin(2*math.Pi*300*t) + 0.1*math.Sin(2*math.Pi*1100*t)
		}
	}
	return quantize(x)
}

// TestGRD1DecodedByServer plays the benchmark's encoding through the real
// server and checks that the server decodes every sample and serves the
// same final verdict the standalone reference guard gives.
func TestGRD1DecodedByServer(t *testing.T) {
	det := defense.DemoThresholds()
	srv := stream.NewServer(stream.ServerConfig{Detector: det, Cascade: true, CascadeFloorDB: cascadeFloorDB})
	for _, n := range []int{48000, 48000 + 3*chunkSamples/2} { // whole frames, then a partial last chunk
		pcm := testPCM(n, int64(n))
		p := payload{wire: encodeGRD1(48000, pcm)}

		rate, x, err := decodeGRD1(p.wire)
		if err != nil || rate != 48000 || len(x) != n {
			t.Fatalf("decodeGRD1: rate %v, %d samples, err %v", rate, len(x), err)
		}
		for i, v := range pcm {
			if x[i] != float64(v)/32767 {
				t.Fatalf("sample %d decoded as %v, want %v", i, x[i], float64(v)/32767)
			}
		}

		var out bytes.Buffer
		if err := srv.ServeSession(bytes.NewReader(p.wire), &out); err != nil {
			t.Fatalf("%d samples: server: %v", n, err)
		}
		var last []byte
		for sc := bufio.NewScanner(&out); sc.Scan(); {
			last = append(last[:0], sc.Bytes()...)
		}
		var got struct {
			verdict
			Final   bool `json:"final"`
			Samples int  `json:"samples"`
		}
		if err := json.Unmarshal(last, &got); err != nil {
			t.Fatalf("final line %q: %v", last, err)
		}
		if !got.Final || got.Samples != n {
			t.Fatalf("final=%v samples=%d, want a final verdict over %d samples", got.Final, got.Samples, n)
		}
		ref, err := reference(p, det)
		if err != nil {
			t.Fatal(err)
		}
		if got.verdict != ref {
			t.Errorf("%d samples: served verdict %+v, reference %+v", n, got.verdict, ref)
		}
	}
}

func TestLongestZeroRun(t *testing.T) {
	for _, c := range []struct {
		pcm  []int16
		want int
	}{
		{nil, 0}, {[]int16{1, 2}, 0}, {[]int16{0, 0, 1, 0, 0, 0, 2}, 3}, {[]int16{3, 0, 0}, 2},
	} {
		if got := longestZeroRun(c.pcm); got != c.want {
			t.Errorf("longestZeroRun(%v) = %d, want %d", c.pcm, got, c.want)
		}
	}
}
