#!/usr/bin/env bash
# CI gate: build, vet, race-enabled short tests, full tests, short
# benchmarks. Mirrors what a reviewer should run before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go build"
go build ./...

echo "==> go vet"
go vet ./...

echo "==> go test -race -short (runner + cache + kernel race coverage)"
go test -race -short -timeout 20m ./...

echo "==> go test -race (streaming guard + fleet: concurrent sessions, churn, SPSC ring)"
go test -race -timeout 20m ./internal/stream ./internal/fleet ./internal/telemetry

echo "==> go test (full suite, incl. E1-E13 golden cold/warm/parallel pins)"
go test -timeout 40m ./...

echo "==> fuzz smoke (WAV decoder + spec loader + GRD1/GRDX framing + lag screen + decimator)"
go test ./internal/audio -run '^$' -fuzz FuzzWAVReader -fuzztime 10s
go test ./internal/sim -run '^$' -fuzz FuzzSpecLoader -fuzztime 10s
# -fuzzminimizetime 100x: exec-bounded minimization; the default
# time-based budget can eat the whole -fuzztime on a slow runner.
go test ./internal/stream -run '^$' -fuzz FuzzGRD1Framing -fuzztime 10s -fuzzminimizetime 100x
go test ./internal/dsp -run '^$' -fuzz FuzzBatchedRFFT -fuzztime 10s -fuzzminimizetime 100x
go test ./internal/journal -run '^$' -fuzz FuzzJournalSegmentDecoder -fuzztime 10s -fuzzminimizetime 100x
go test ./internal/cluster -run '^$' -fuzz FuzzGRDXFrame -fuzztime 10s -fuzzminimizetime 100x
go test ./internal/dsp -run '^$' -fuzz FuzzMaxCorrelationLag -fuzztime 10s -fuzzminimizetime 100x
go test ./internal/dsp -run '^$' -fuzz FuzzDecimatingFIR -fuzztime 10s -fuzzminimizetime 100x

echo "==> short benchmarks (trial engine + sweep cache + FFT plan cache + stream guard + sim chain)"
go test ./internal/experiment -run '^$' -bench 'E5Serial|E5Parallel' -benchtime 1x -timeout 30m
go test ./internal/experiment -run '^$' -bench 'SuiteAllWarmCache|SweepCell' -benchtime 1x -timeout 40m
go test ./internal/dsp -run '^$' -bench 'FFT4096|RFFT4096' -benchtime 100x
go test . -run '^$' -bench 'StreamGuard|StreamFIRPush' -benchtime 200x -timeout 10m
go test ./internal/sim -run '^$' -bench 'BenchmarkSimChain$' -benchtime 100x -timeout 10m

echo "==> cascade parity / FN-budget gate (base + tier-0.5: zero added false negatives vs always-on guard)"
go test ./internal/stream -run 'TestCascadeCorpusParity' -count=1 -timeout 20m

echo "==> batched-path gates (column-batch verdict parity + 0 allocs/frame on the staged cycle)"
go test ./internal/stream -run 'TestColumnBatchParity|TestBatchedPathZeroAllocs' -count=1 -timeout 20m

echo "==> journal gates (zero-alloc SPSC handoff + crash recovery + replay parity)"
go test ./internal/journal -run 'TestSinkDropWhenFullAndZeroAlloc|TestTornTailRecovery|TestReplayParityAndDiff' -count=1 -timeout 10m
go test ./internal/stream -run 'TestJournaledSessionEndToEnd' -count=1 -timeout 10m

echo "==> fleet benchmarks (0 allocs/frame gate: see allocs/op in the output)"
go test ./internal/fleet -run '^$' -bench 'FleetCoreFrame' -benchtime 20000x -benchmem -timeout 10m
go test ./internal/stream -run '^$' -bench 'FleetThroughput$' -benchtime 5000x -benchmem -timeout 10m
go test ./internal/stream -run '^$' -bench 'FleetThroughputTraced' -benchtime 5000x -benchmem -timeout 10m
go test ./internal/stream -run '^$' -bench 'FleetThroughputJournaled' -benchtime 5000x -benchmem -timeout 10m
go test ./internal/stream -run '^$' -bench 'CascadeFleetThroughput' -benchtime 5000x -benchmem -timeout 10m

echo "==> loadgen smoke (in-process fleet server, cheap payloads, overload path)"
go run ./cmd/loadgen -synth cheap -detector demo -sessions 4 -duration 2s -session-seconds 0.5 -quiet
go run ./cmd/loadgen -synth cheap -detector demo -sessions 6 -max-sessions 2 -degrade -duration 2s -session-seconds 0.5 -quiet
go run ./cmd/loadgen -synth cheap -detector demo -sessions 4 -duration 2s -cascade -duty 0.25 -quiet

echo "==> introspection smoke (live guardd: burst of sessions, then guardctl check)"
go build -o /tmp/guardd-ci ./cmd/guardd
go build -o /tmp/guardctl-ci ./cmd/guardctl
/tmp/guardd-ci -detector demo -listen 127.0.0.1:7698 -metrics 127.0.0.1:7699 -cascade -emit-every 25 &
GUARDD_PID=$!
trap 'kill "$GUARDD_PID" 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
	if curl -fsS http://127.0.0.1:7699/healthz >/dev/null 2>&1; then break; fi
	sleep 0.2
done
go run ./cmd/loadgen -addr 127.0.0.1:7698 -synth cheap -sessions 4 -duration 2s -session-seconds 0.5 -quiet >/dev/null
/tmp/guardctl-ci -base http://127.0.0.1:7699 check
# The flight recorder must have retained the burst's sessions.
/tmp/guardctl-ci -base http://127.0.0.1:7699 fleet | grep -q '"completed_total"'
kill "$GUARDD_PID" 2>/dev/null || true
wait "$GUARDD_PID" 2>/dev/null || true
trap - EXIT

echo "==> journal crash smoke (kill -9 mid-traffic: recover, zero corrupt records, bit-identical replay)"
go build -o /tmp/replay-ci ./cmd/replay
JDIR=$(mktemp -d /tmp/journal-ci.XXXXXX)
/tmp/guardd-ci -detector demo -listen 127.0.0.1:7741 -metrics 127.0.0.1:7742 -journal "$JDIR" -emit-every 25 &
GUARDD_PID=$!
trap 'kill -9 "$GUARDD_PID" 2>/dev/null || true; rm -rf "$JDIR"' EXIT
for i in $(seq 1 50); do
	if curl -fsS http://127.0.0.1:7742/healthz >/dev/null 2>&1; then break; fi
	sleep 0.2
done
# Burst in the background and kill -9 the daemon mid-traffic: the WAL
# may lose at most the torn tail, never a corrupt or out-of-order record.
go run ./cmd/loadgen -addr 127.0.0.1:7741 -synth cheap -sessions 4 -duration 4s -session-seconds 0.5 -quiet >/dev/null 2>&1 &
LOADGEN_PID=$!
sleep 2
kill -9 "$GUARDD_PID" 2>/dev/null || true
wait "$LOADGEN_PID" 2>/dev/null || true
/tmp/guardd-ci -detector demo -listen 127.0.0.1:7741 -metrics 127.0.0.1:7742 -journal "$JDIR" -emit-every 25 &
GUARDD_PID=$!
for i in $(seq 1 50); do
	if curl -fsS http://127.0.0.1:7742/healthz >/dev/null 2>&1; then break; fi
	sleep 0.2
done
# check now includes the journal-integrity leg: zero corrupt records
# and a sampled record decode, or it exits non-zero.
/tmp/guardctl-ci -base http://127.0.0.1:7742 check
# The restarted daemon must serve the pre-crash sessions.
/tmp/guardctl-ci -base http://127.0.0.1:7742 journal | python3 -c '
import json, sys
d = json.load(sys.stdin)
st = d["stats"]
assert st["corrupt_records_total"] == 0, st
assert st["recovered_records"] > 0 and len(d["sessions"]) > 0, st
seqs = [s["seq"] for s in d["sessions"]]
assert seqs == sorted(seqs, reverse=True), "listing out of order"
'
kill "$GUARDD_PID" 2>/dev/null || true
wait "$GUARDD_PID" 2>/dev/null || true
trap - EXIT
# Replay the recovered journal through the same demo detector: every
# surviving verdict must reproduce bit-for-bit.
/tmp/replay-ci -journal "$JDIR" -detector demo -verify
rm -rf "$JDIR" /tmp/replay-ci

echo "==> multi-node smoke (2 backends + router: burst, per-role check, drain, zero dropped verdicts)"
go build -o /tmp/loadgen-ci ./cmd/loadgen
CI_SMOKE_PIDS=()
/tmp/guardd-ci -detector demo -cluster-node 127.0.0.1:7711 -metrics 127.0.0.1:7712 -node n1 -drain 5s &
CI_SMOKE_PIDS+=($!)
/tmp/guardd-ci -detector demo -cluster-node 127.0.0.1:7721 -metrics 127.0.0.1:7722 -node n2 -drain 5s &
CI_SMOKE_PIDS+=($!)
/tmp/guardd-ci -route 127.0.0.1:7711,127.0.0.1:7721 -listen 127.0.0.1:7730 -metrics 127.0.0.1:7731 -node rt -drain 5s &
CI_SMOKE_PIDS+=($!)
trap 'for p in "${CI_SMOKE_PIDS[@]}"; do kill "$p" 2>/dev/null || true; done' EXIT
for port in 7712 7722 7731; do
	for i in $(seq 1 50); do
		if curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then break; fi
		sleep 0.2
	done
done
/tmp/loadgen-ci -addr 127.0.0.1:7730 -synth cheap -sessions 4 -duration 2s -session-seconds 0.5 -quiet -json /tmp/lg-cluster-ci.json >/dev/null
python3 -c 'import json; ep = json.load(open("/tmp/lg-cluster-ci.json"))["epochs"][0]; assert ep["errors"] == 0 and ep["completed"] > 0, ep'
# The observability plane must validate on every role: both backend
# nodes and the router (guardctl check adapts to what each mounts).
/tmp/guardctl-ci -base http://127.0.0.1:7712 check
/tmp/guardctl-ci -base http://127.0.0.1:7722 check
/tmp/guardctl-ci -base http://127.0.0.1:7731 check
/tmp/guardctl-ci -base http://127.0.0.1:7731 cluster >/tmp/cluster-view-ci.json
# Drain n1, push a second burst: every session must still get a final
# verdict (zero errors), with the drained node frozen out of rotation.
/tmp/guardctl-ci -base http://127.0.0.1:7731 drain 127.0.0.1:7711 >/dev/null
/tmp/loadgen-ci -addr 127.0.0.1:7730 -synth cheap -sessions 4 -duration 2s -session-seconds 0.5 -quiet -json /tmp/lg-cluster-ci.json >/dev/null
/tmp/guardctl-ci -base http://127.0.0.1:7731 cluster >/tmp/cluster-view-ci-drained.json
python3 - <<'EOF'
import json
ep = json.load(open("/tmp/lg-cluster-ci.json"))["epochs"][0]
assert ep["errors"] == 0 and ep["completed"] > 0, ep
before = {n["addr"]: n for n in json.load(open("/tmp/cluster-view-ci.json"))["nodes"]}
after = {n["addr"]: n for n in json.load(open("/tmp/cluster-view-ci-drained.json"))["nodes"]}
drained, other = after["127.0.0.1:7711"], after["127.0.0.1:7721"]
assert drained.get("draining"), "drain did not take"
assert drained["sessions_total"] == before["127.0.0.1:7711"]["sessions_total"], "drained node got new sessions"
assert other["finished_total"] > before["127.0.0.1:7721"]["finished_total"], "survivor took no sessions"
EOF
for p in "${CI_SMOKE_PIDS[@]}"; do kill "$p" 2>/dev/null || true; done
for p in "${CI_SMOKE_PIDS[@]}"; do wait "$p" 2>/dev/null || true; done
trap - EXIT
rm -f /tmp/guardd-ci /tmp/guardctl-ci /tmp/loadgen-ci /tmp/lg-cluster-ci.json /tmp/cluster-view-ci.json /tmp/cluster-view-ci-drained.json

echo "CI gate passed."
