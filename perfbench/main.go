// Command perfbench measures the guard service end to end and layer by
// layer. It builds each system in-process from the repo's packages,
// drives it over loopback TCP with clips synthesized from a seed, checks
// every served verdict against a standalone reference, and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload guard-continuous --seed 7 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// it holds the per-layer metrics, read from spans the benchmark records
// around its own calls into each layer, the server's registry, timing
// wrappers around the detector and the cluster backend, and CPU profiles
// rolled up by layer; the spans and layer tables are written under
// .bench_build/trace/ when the run ends.
//
// The load is a device uploading a captured command clip at wire speed
// and waiting for the final verdict, on at most nproc client lanes. A
// closed-loop phase (the lanes back to back) gives sessions_per_s; an
// open-loop phase (seeded Poisson arrivals at a fixed per-workload rate)
// gives the verdict latency quantiles, timed from each session's due
// time, which the traced run reports.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"inaudible/internal/cluster"
	"inaudible/internal/core"
	"inaudible/internal/defense"
	"inaudible/internal/experiment"
	"inaudible/internal/telemetry"
)

// workload is one traffic mix against one deployment.
type workload struct {
	name           string
	sessionSeconds float64
	// duty places one delivery on an ambient floor instead of tiling
	// the recording over the whole session.
	duty bool
	// routed puts a cluster router and backend in front of the server.
	routed bool
	// openRate is the open-loop arrival rate (sessions/s): about a third
	// of the closed-loop capacity of the commit that defined the
	// benchmark, on a 2-core host. At that load the lanes are mostly
	// free, so the latency quantiles of a short phase follow the service
	// time more than the luck of a few arrival bursts. It is a constant
	// so that later commits are measured at the same offered load.
	openRate float64
}

var workloads = []workload{
	// Active audio in every frame: the cascade stays engaged, so the
	// analyzer's FIR/FFT chains and the per-session costs (journal,
	// trace, detector) dominate. No router.
	{name: "guard-continuous", sessionSeconds: 2, openRate: 13},
	// One command on a rendered ambient floor, through a cluster router
	// and backend: cascade triage runs on every frame and the analyzer
	// only while engaged (about 80% of the frames at the defining
	// commit, as the peak-relative VAD takes the floor before the
	// command for speech), and every session crosses the relay.
	{name: "guard-duty-routed", sessionSeconds: 8, duty: true, routed: true, openRate: 4.7},
}

// closedShare is the part of --seconds given to the closed-loop phase;
// the open-loop schedule spans the rest.
const closedShare = 0.4

// warmUp is the untimed closed-loop phase before the measured ones.
const warmUp = time.Second

// scratchDir holds what a run writes: the journal and the traced run's
// spans and layer tables.
const scratchDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 7, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds (closed- plus open-loop phase)")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	b := &bench{w: *w, seed: *seed, measure: time.Duration(*seconds) * time.Second, lanes: runtime.NumCPU(), res: result{Correct: true, Metrics: map[string]metric{}}}
	if *traced == 1 {
		b.tr = newTracer()
	}
	if err := b.run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !b.res.Correct {
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	w       workload
	seed    int64
	measure time.Duration
	lanes   int
	tr      *tracer // nil: untraced run
	res     result

	payloads []payload
	order    []int // payload play order, a seeded permutation
	rig      *rig
	det      *timedDetector
	wrapOn   atomic.Bool // timing wrappers measure while set
	profiles map[string]layerTable
}

func (b *bench) set(name string, v float64, unit string) { b.res.Metrics[name] = metric{v, unit} }

// count folds phase outcomes into attempted/failed, reporting the first
// few failures on stderr.
func (b *bench) count(outs []outcome) {
	for _, o := range outs {
		b.res.Attempted++
		if o.err != nil {
			if b.res.Failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: session failed: %v\n", o.err)
			}
			b.res.Failed++
			b.res.Correct = false
		}
	}
}

func (b *bench) run() error {
	setupStart := time.Now()
	stopProf, err := b.profile("setup")
	if err != nil {
		return err
	}
	cpu0 := cpuTime()
	err = b.setUp()
	setupWall := time.Since(setupStart)
	cpuPerWall := (cpuTime() - cpu0).Seconds() / setupWall.Seconds()
	if perr := stopProf(); err == nil {
		err = perr
	}
	if b.rig != nil {
		defer b.rig.close()
	}
	if err != nil {
		return err
	}
	// Drop the set-up's garbage and warm the server's pools and the
	// loopback path before anything is timed.
	runtime.GC()
	b.count(closedLoop(b.rig.target, b.payloads, b.order, b.lanes, warmUp))
	if b.tr == nil {
		b.set("setup_s", setupWall.Seconds(), "s")
		return b.serveUntraced()
	}
	b.set("experiment.cpu_per_wall", cpuPerWall, "ratio")
	return b.serveTraced()
}

// setUp synthesizes the payloads, trains the detector, computes every
// payload's reference verdict and starts the deployment.
func (b *bench) setUp() error {
	step := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		if b.tr != nil {
			b.tr.add(span{Name: "setup." + name, Start: b.tr.at(start), End: b.tr.now()})
			b.set("experiment."+name+"_s", time.Since(start).Seconds(), "s")
		}
		return err
	}
	if err := step("payload", func() (err error) {
		b.payloads, err = buildPayloads(b.w, b.seed)
		b.order = rand.New(rand.NewSource(b.seed)).Perm(len(b.payloads))
		return err
	}); err != nil {
		return fmt.Errorf("payloads: %w", err)
	}
	var det defense.Detector
	if err := step("train", func() (err error) {
		sc := core.DefaultScenario()
		sc.Seed = b.seed
		cfg := experiment.QuickCorpusConfig(experiment.DefaultCorpusConfig(sc))
		cfg.Runner = experiment.NewRunner(0)
		det, err = experiment.TrainDetector("svm", cfg, b.seed)
		return err
	}); err != nil {
		return fmt.Errorf("training: %w", err)
	}
	// The served verdicts must equal the references exactly. Whether a
	// reference matches its clip's label is the detector's accuracy, not
	// the service's correctness: the Quick-trained SVM flags some voice
	// deliveries as attacks at some seeds, so it is counted and reported.
	mismatches := 0
	if err := step("reference", func() error {
		for i := range b.payloads {
			p := &b.payloads[i]
			ref, err := reference(*p, det)
			if err != nil {
				return err
			}
			if ref.Attack != p.attack {
				mismatches++
			}
			p.ref = ref
		}
		return nil
	}); err != nil {
		return fmt.Errorf("reference verdicts: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d reference verdicts differ from their clip's label\n", b.w.name, mismatches, len(b.payloads))
	if b.tr != nil {
		b.set("detector.label_mismatches", float64(mismatches), "count")
	}
	return step("server", func() (err error) {
		var wrap func(cluster.SessionServer) cluster.SessionServer
		if b.tr != nil {
			b.det = &timedDetector{Detector: det, on: &b.wrapOn}
			det = b.det
			wrap = func(s cluster.SessionServer) cluster.SessionServer {
				return &timedBackend{SessionServer: s, on: &b.wrapOn, tr: b.tr}
			}
		}
		b.rig, err = startRig(b.w, det, scratchDir, wrap)
		return err
	})
}

// phases splits the measured time between the two load phases.
func (b *bench) phases() (closed, open time.Duration) {
	closed = time.Duration(closedShare * float64(b.measure))
	return closed, b.measure - closed
}

// giveUp bounds an open-loop phase scheduled over span.
func giveUp(span time.Duration) time.Duration { return 2*span + 10*time.Second }

func (b *bench) serveUntraced() error {
	closedD, openD := b.phases()
	closed := closedLoop(b.rig.target, b.payloads, b.order, b.lanes, closedD)
	b.count(closed)
	b.set("sessions_per_s", throughput(closed), "1/s")

	sched := poissonSchedule(b.seed+1, b.w.openRate, openD)
	open := openLoop(b.rig.target, b.payloads, b.order, b.lanes, sched, giveUp(openD))
	lat := make([]float64, 0, len(open))
	for _, o := range open {
		b.count([]outcome{o.outcome})
		if o.err == nil {
			lat = append(lat, float64(o.end.Sub(o.due))/1e6)
		}
	}
	b.set("peak_rss_mb", peakRSSMB(), "MB")
	// The open-loop latencies vary too much from run to run on a shared
	// 2-core host for a bounded end-to-end metric (median spread ~0.2 of
	// its median over ten seeds); they are printed here and reported by
	// the traced run.
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d closed-loop sessions; %d open-loop sessions, verdict p50 %.1f p90 %.1f p99 %.1f ms\n",
		b.w.name, len(closed), len(open), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99))
	return nil
}

// throughput is the successful sessions per second of a closed-loop
// phase, over the span from its first start to its last end.
func throughput(outs []outcome) float64 {
	if len(outs) == 0 {
		return 0
	}
	first, last := outs[0].start, outs[0].end
	ok := 0
	for _, o := range outs {
		if o.start.Before(first) {
			first = o.start
		}
		if o.end.After(last) {
			last = o.end
		}
		if o.err == nil {
			ok++
		}
	}
	return float64(ok) / last.Sub(first).Seconds()
}

// serveTraced runs the same phases with the wrappers and the CPU
// profiler on, after an untraced closed-loop phase of the same length
// that gives the tracing overhead.
func (b *bench) serveTraced() error {
	closedD, openD := b.phases()
	base := closedLoop(b.rig.target, b.payloads, b.order, b.lanes, closedD)
	b.count(base)

	reg := b.rig.reg
	// An instrument the server no longer registers reads as empty.
	hist := func(name string) telemetry.HistogramDump {
		if h, ok := lookup[*telemetry.Histogram](reg, name); ok {
			return h.Dump()
		}
		return telemetry.HistogramDump{}
	}
	counter := func(name string) float64 {
		if c, ok := lookup[*telemetry.Counter](reg, name); ok {
			return float64(c.Value())
		}
		return 0
	}
	histNames := []string{"fleet_frame_latency_us", "fleet_ring_occupancy_frames", "fleet_batch_round_sessions",
		"fleet_batch_advance_latency_us", "fleet_verdict_latency_us"}
	counterNames := []string{"fleet_ring_full_waits_total", "fleet_cascade_tier0_frames_total", "fleet_cascade_tier1_frames_total",
		"fleet_cascade_escalations_total", "journal_records_total", "journal_dropped_total",
		"cluster_sessions_total", "cluster_node_failures_total"}
	h0 := map[string]telemetry.HistogramDump{}
	for _, n := range histNames {
		h0[n] = hist(n)
	}
	c0 := map[string]float64{}
	for _, n := range counterNames {
		c0[n] = counter(n)
	}
	jbytes0 := b.rig.jnl.Stats().Bytes
	notable0 := b.rig.rec.Stats().Notable
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	stopProf, err := b.profile("serve")
	if err != nil {
		return err
	}
	b.wrapOn.Store(true)
	phase := b.tr.add(span{Name: "phase.closed", Start: b.tr.now()})
	closed := closedLoop(b.rig.target, b.payloads, b.order, b.lanes, closedD)
	b.traceSessions(phase, closed, nil)
	sched := poissonSchedule(b.seed+1, b.w.openRate, openD)
	phase = b.tr.add(span{Name: "phase.open", Start: b.tr.now()})
	open := openLoop(b.rig.target, b.payloads, b.order, b.lanes, sched, giveUp(openD))
	b.traceSessions(phase, nil, open)
	b.wrapOn.Store(false)
	if err := stopProf(); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)

	b.count(closed)
	var late, lat []float64
	for _, o := range open {
		b.count([]outcome{o.outcome})
		late = append(late, float64(o.late)/1e6)
		if o.err == nil {
			lat = append(lat, float64(o.end.Sub(o.due))/1e6)
		}
	}
	sessions := float64(len(closed) + len(open))
	perSession := func(v float64) float64 { return v / sessions }
	d := func(n string) float64 { return counter(n) - c0[n] }
	hq := func(n string, q float64) float64 { return histQuantile(histDelta(h0[n], hist(n)), q) }

	b.set("trace.overhead_frac", 1-throughput(closed)/throughput(base), "ratio")
	b.set("fleet.frame_us_p50", hq("fleet_frame_latency_us", 0.5), "us")
	b.set("fleet.frame_us_p99", hq("fleet_frame_latency_us", 0.99), "us")
	b.set("fleet.ring_occupancy_p50", hq("fleet_ring_occupancy_frames", 0.5), "frames")
	b.set("fleet.ring_full_waits_per_session", perSession(d("fleet_ring_full_waits_total")), "count")
	b.set("fleet.round_sessions_p50", hq("fleet_batch_round_sessions", 0.5), "count")
	b.set("fleet.advance_us_p50", hq("fleet_batch_advance_latency_us", 0.5), "us")
	b.set("fleet.verdict_us_p99", hq("fleet_verdict_latency_us", 0.99), "us")
	t0, t1 := d("fleet_cascade_tier0_frames_total"), d("fleet_cascade_tier1_frames_total")
	b.set("cascade.tier1_frame_frac", t1/max(t0+t1, 1), "ratio")
	b.set("cascade.escalations_per_session", perSession(d("fleet_cascade_escalations_total")), "count")

	var send []float64
	for _, s := range b.tr.named("session.send") {
		send = append(send, float64(s.dur())/1e6)
	}
	b.set("wire.send_ms_p50", median(send), "ms")

	// Direct workloads have no backend spans and no cluster counters:
	// their cluster metrics read 0.
	relay := b.tr.relayAdded(b.tr.named("session"), b.tr.named("backend.serve"))
	b.set("cluster.relay_added_ms_p50", zeroIfNaN(quantile(relay, 0.5)), "ms")
	b.set("cluster.relay_added_ms_p99", zeroIfNaN(quantile(relay, 0.99)), "ms")
	b.set("cluster.sessions", d("cluster_sessions_total"), "count")
	b.set("cluster.node_failures", d("cluster_node_failures_total"), "count")

	calls := float64(b.det.calls.Load())
	b.set("detector.calls_per_session", perSession(calls), "count")
	b.set("detector.score_ns", float64(b.det.ns.Load())/max(calls, 1), "ns")

	records := d("journal_records_total")
	b.set("journal.records_per_session", perSession(records), "count")
	b.set("journal.bytes_per_record", float64(b.rig.jnl.Stats().Bytes-jbytes0)/max(records, 1), "B")
	b.set("journal.dropped", d("journal_dropped_total"), "count")
	b.set("trace.notable", float64(b.rig.rec.Stats().Notable-notable0), "count")
	b.set("alloc_bytes_per_session", perSession(float64(ms1.TotalAlloc-ms0.TotalAlloc)), "B")
	b.set("gen.late_ms_p99", quantile(late, 0.99), "ms")
	b.set("verdict.p50_ms", quantile(lat, 0.50), "ms")
	b.set("verdict.p90_ms", quantile(lat, 0.90), "ms")
	b.set("verdict.p99_ms", quantile(lat, 0.99), "ms")
	b.set("verdict.samples", float64(len(lat)), "count")

	setupT, serveT := b.profiles["setup"], b.profiles["serve"]
	for _, l := range []string{"dsp.resample", "dsp.correlate", "dsp.fft", "dsp.fir", "speaker", "sim", "voice.synth", "runtime.gc", "unattributed"} {
		b.set("setup.cpu."+l, setupT.share(l), "%")
	}
	for _, l := range []string{"dsp.fir", "dsp.fft", "dsp.correlate", "dsp.other", "stream.analyzer", "stream.cascade", "voice.vad", "fleet",
		"stream.wire", "syscall", "cluster", "journal", "trace", "telemetry", "defense", "runtime.gc", "runtime.other", "unattributed"} {
		b.set("cpu."+l, serveT.share(l), "%")
	}
	b.set("gen.cpu_share", serveT.share("gen"), "%")

	dir := b.traceDir()
	var tables strings.Builder
	for _, n := range []string{"setup", "serve"} {
		fmt.Fprintf(&tables, "== %s ==\n%s\n", n, b.profiles[n])
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(tables.String()), 0o644); err != nil {
		return err
	}
	return b.tr.write(filepath.Join(dir, "spans.json"))
}

// traceSessions records a span per client session and its upload under
// the phase span, then closes the phase span.
func (b *bench) traceSessions(phase int, closed []outcome, open []timed) {
	all := make([]outcome, 0, len(closed)+len(open))
	all = append(all, closed...)
	for _, o := range open {
		all = append(all, o.outcome)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	base := len(b.tr.named("session"))
	for i, o := range all {
		sess := base + i + 1
		id := b.tr.add(span{Name: "session", Parent: phase, Session: sess, Start: b.tr.at(o.start), End: b.tr.at(o.end)})
		b.tr.add(span{Name: "session.send", Parent: id, Session: sess, Start: b.tr.at(o.start), End: b.tr.at(o.sent)})
	}
	b.tr.end(phase)
}

// traceDir is where the traced run writes its spans, layer tables and
// raw CPU profiles.
func (b *bench) traceDir() string {
	return filepath.Join(scratchDir, "trace", fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
}

// profile starts a CPU profile when the run is traced; the returned
// stop function ends it, keeps the raw profile under the trace directory
// and its layer rollup in b.profiles.
func (b *bench) profile(name string) (stop func() error, err error) {
	if b.tr == nil {
		return func() error { return nil }, nil
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		stacks, err := parseProfile(buf.Bytes())
		if err != nil {
			return err
		}
		if b.profiles == nil {
			b.profiles = map[string]layerTable{}
		}
		b.profiles[name] = rollup(stacks)
		dir := b.traceDir()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name+".pprof"), buf.Bytes(), 0o644)
	}, nil
}

// lookup finds the instrument called name in reg, if it has type T.
func lookup[T telemetry.Metric](reg *telemetry.Registry, name string) (T, bool) {
	m, _ := reg.Lookup(name)
	t, ok := m.(T)
	return t, ok
}

func zeroIfNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
