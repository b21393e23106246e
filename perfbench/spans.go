package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the run started; Parent is the ID of the span that
// caused it (0: none), and spans of one client session share Session.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Session int    `json:"session,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the traced run's spans in memory until the run ends. A
// nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

// add records s, assigning it the next ID, and returns that ID.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// end sets the end of span id to now.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// relayAdded matches every routed client session to the backend span it
// caused and returns, per matched session, the client time minus the
// backend's ServeSessionKeyed time: what the router and the transport
// added. The backend span lies inside its client session; of the
// unclaimed backend spans inside a session, the one that ended last is
// taken, since the verdict's relay to the client closes the session
// right after it. Matched backend spans get the session as parent.
func (t *tracer) relayAdded(sessions, backends []span) []float64 {
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].End < sessions[j].End })
	claimed := make([]bool, len(backends))
	var out []float64
	for _, s := range sessions {
		best := -1
		for i, b := range backends {
			if !claimed[i] && b.Start >= s.Start && b.End <= s.End && (best < 0 || b.End > backends[best].End) {
				best = i
			}
		}
		if best < 0 {
			continue
		}
		claimed[best] = true
		t.setParent(backends[best].ID, s.ID, s.Session)
		out = append(out, float64(s.dur()-backends[best].dur())/1e6)
	}
	return out
}

func (t *tracer) setParent(id, parent, session int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Parent = parent
	t.spans[id-1].Session = session
}
