package main

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"inaudible/internal/core"
	"inaudible/internal/defense"
	"inaudible/internal/stream"
)

func TestLayerOfKnownSymbols(t *testing.T) {
	for _, c := range []struct {
		f    frame
		want string
	}{
		{frame{"inaudible/internal/dsp.besselI0", "/src/internal/dsp/window.go"}, "dsp.resample"},
		{frame{"inaudible/internal/dsp.PearsonCorrelation", "/src/internal/dsp/correlate.go"}, "dsp.correlate"},
		{frame{"inaudible/internal/dsp.(*fftPlan).radix2", "/src/internal/dsp/plan.go"}, "dsp.fft"},
		{frame{"inaudible/internal/dsp.(*StreamFIR).runSegment", "/src/internal/dsp/stream.go"}, "dsp.fir"},
		{frame{"inaudible/internal/stream.(*CascadeGuard).classify", "/src/internal/stream/cascade.go"}, "stream.cascade"},
		{frame{"inaudible/internal/stream.(*Server).runSession", "/src/internal/stream/serve.go"}, "stream.wire"},
		{frame{"inaudible/internal/stream.(*Analyzer).Push", "/src/internal/stream/analyzer.go"}, "stream.analyzer"},
		{frame{"inaudible/internal/voice.(*StreamVAD).Push", "/src/internal/voice/vad.go"}, "voice.vad"},
		{frame{"inaudible/internal/mic.(*Device).Record", "/src/internal/mic/mic.go"}, "sim"},
		{frame{"inaudible/internal/cluster.(*Router).handleConn", "/src/internal/cluster/router.go"}, "cluster"},
		{frame{"runtime.mallocgc", ""}, "runtime.gc"},
		{frame{"syscall.Syscall", ""}, "syscall"},
		{frame{"main.runSession", ""}, "gen"},
		{frame{"encoding/json.Unmarshal", ""}, ""},
		{frame{"runtime.memmove", ""}, ""},
	} {
		if got := layerOf(c.f); got != c.want {
			t.Errorf("layerOf(%s) = %q, want %q", c.f.name, got, c.want)
		}
	}
	// Glue frames belong to the nearest caller with a layer.
	st := stack{frames: []frame{{"runtime.memmove", ""}, {"encoding/json.Unmarshal", ""}, {"inaudible/internal/journal.(*Journal).append", "/src/internal/journal/journal.go"}}}
	if got := stackLayer(st); got != "journal" {
		t.Errorf("stackLayer = %q, want journal", got)
	}
	if got := stackLayer(stack{frames: []frame{{"runtime.futex", ""}, {"runtime.mcall", ""}}}); got != layerRuntimeOther {
		t.Errorf("runtime-only stack = %q, want %q", got, layerRuntimeOther)
	}
}

// TestLayerMapCoversTracedCPU profiles a small version of a run, set-up
// (sim-chain synthesis) and serving (sessions over loopback TCP), and
// requires the symbol-to-layer map to attribute at least 90% of the CPU
// samples to named layers.
func TestLayerMapCoversTracedCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a few seconds of work")
	}
	if raceEnabled {
		// The race runtime's own frames carry no Go caller in a CPU
		// profile; the benchmark binary is never built with it.
		t.Skip("CPU attribution is checked without the race detector")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	profiling := true
	defer func() {
		if profiling {
			pprof.StopCPUProfile()
		}
	}()

	sc := core.DefaultScenario()
	floor := ambientFloor(sc, rand.New(rand.NewSource(1)), 60*48000)
	det := defense.DemoThresholds()
	p := payload{wire: encodeGRD1(48000, append(testPCM(48000, 1), quantize(floor[:48000])...))}
	var err error
	if p.ref, err = reference(p, det); err != nil {
		t.Fatal(err)
	}
	srv := stream.NewServer(stream.ServerConfig{Detector: det, Cascade: true, CascadeFloorDB: cascadeFloorDB})
	defer srv.Shutdown(context.Background())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); srv.ServeListener(l) }()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if o := runSession(l.Addr().String(), &p); o.err != nil {
			t.Fatal(o.err)
		}
	}
	l.Close()
	wg.Wait()
	pprof.StopCPUProfile()
	profiling = false

	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tab := rollup(stacks)
	if tab.total < 50 {
		t.Fatalf("only %d CPU samples; too few to judge attribution", tab.total)
	}
	t.Logf("\n%s", tab)
	if u := tab.share(layerUnattributed); u >= 10 {
		t.Errorf("%.1f%% of CPU samples unattributed, want under 10%%", u)
	}
	for _, l := range []string{"stream.analyzer", "dsp.fft", "sim"} {
		if tab.samples[l] == 0 {
			t.Errorf("no samples in layer %s", l)
		}
	}
}
