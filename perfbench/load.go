package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one client session: dial, upload of the clip at wire speed,
// half-close, then every verdict line until the server closes.
type outcome struct {
	start, sent, end time.Time
	err              error
}

// runSession plays p against target and checks its final verdict
// against p's reference. A dial or read error, an error line (a
// refusal), a missing final line and a verdict that differs from the
// reference all fail the session.
func runSession(target string, p *payload) outcome {
	o := outcome{start: time.Now()}
	conn, err := net.Dial("tcp", target)
	if err != nil {
		o.err = fmt.Errorf("dial: %w", err)
		o.sent, o.end = o.start, time.Now()
		return o
	}
	defer conn.Close()
	_, werr := conn.Write(p.wire)
	o.sent = time.Now()
	if werr == nil {
		werr = conn.(*net.TCPConn).CloseWrite()
	}
	// Read to EOF even after a failed write: a refused session's error
	// line arrives while the client is still sending.
	var last []byte
	br := bufio.NewReader(conn)
	for {
		line, rerr := br.ReadBytes('\n')
		if line = bytes.TrimSpace(line); len(line) > 0 {
			last = line
		}
		if rerr != nil {
			o.end = time.Now()
			if len(last) == 0 {
				o.err = errors.Join(werr, fmt.Errorf("read: %w", rerr))
				return o
			}
			break
		}
	}
	var v struct {
		verdict
		Final bool    `json:"final"`
		Error *string `json:"error"`
	}
	switch err := json.Unmarshal(last, &v); {
	case err != nil:
		o.err = fmt.Errorf("bad verdict line %q: %w", last, err)
	case v.Error != nil:
		o.err = fmt.Errorf("refused: %s", *v.Error)
	case !v.Final:
		o.err = errors.New("no final verdict")
	case v.verdict != p.ref:
		o.err = fmt.Errorf("verdict %+v differs from reference %+v", v.verdict, p.ref)
	}
	return o
}

// closedLoop runs lanes clients back to back for d. Each lane cycles
// through order (payload indices) from its own starting point, so every
// phase plays the payloads in equal shares.
func closedLoop(target string, payloads []payload, order []int, lanes int, d time.Duration) []outcome {
	deadline := time.Now().Add(d)
	out := make([][]outcome, lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := i * len(order) / lanes; time.Now().Before(deadline); k++ {
				out[i] = append(out[i], runSession(target, &payloads[order[k%len(order)]]))
			}
		}(i)
	}
	wg.Wait()
	var all []outcome
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// poissonSchedule draws the due times, relative to the phase start, of
// Poisson arrivals at rate per second over span from seed, conditioned
// on their count being the expected rate*span: given its count, a
// Poisson process places its arrivals uniformly and independently over
// the span. Fixing the count keeps every seed's offered load the same,
// so runs differ in when sessions arrive, not in how many.
func poissonSchedule(seed int64, rate float64, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, int(math.Round(rate*span.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(span))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// timed is an open-loop outcome with its due time and the generator's
// own slip: how late the session started after the later of its due
// time and the moment its lane was free.
type timed struct {
	outcome
	due  time.Time
	late time.Duration
}

// openLoop plays the schedule on lanes client lanes: each lane takes the
// next arrival in order, waits for its due time if early, and plays it;
// arrival k plays payload order[k mod len(order)].
// A session that waits for a free lane counts that wait, since latency
// is timed from the due time. Arrivals not started within giveUp of the
// phase start are abandoned and fail, which bounds the phase when the
// server falls far behind.
func openLoop(target string, payloads []payload, order []int, lanes int, sched []time.Duration, giveUp time.Duration) []timed {
	t0 := time.Now()
	out := make([]timed, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				due := t0.Add(sched[k])
				free := time.Now()
				if time.Since(t0) > giveUp {
					out[k] = timed{outcome: outcome{start: free, sent: free, end: free, err: errors.New("abandoned: open-loop backlog")}, due: due}
					continue
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				o := runSession(target, &payloads[order[k%len(order)]])
				ready := due
				if free.After(due) {
					ready = free
				}
				out[k] = timed{outcome: o, due: due, late: o.start.Sub(ready)}
			}
		}()
	}
	wg.Wait()
	return out
}
