package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"inaudible/internal/cluster"
	"inaudible/internal/defense"
	"inaudible/internal/journal"
	"inaudible/internal/stream"
	"inaudible/internal/telemetry"
	"inaudible/internal/trace"
)

// rig is one running guard deployment: a stream.Server with the flight
// recorder and journal on, reached directly or through a cluster router
// in front of a backend.
type rig struct {
	target string // address the load dials
	reg    *telemetry.Registry
	rec    *trace.Recorder
	jnl    *journal.Journal
	srv    *stream.Server
	router *cluster.Router
	be     *cluster.Backend

	jdir      string
	listeners []net.Listener
	serving   sync.WaitGroup
}

// startRig builds the server for w around det, with its journal in a
// fresh directory under scratch. backend, when non-nil, wraps the server
// the cluster backend bridges sessions into.
func startRig(w workload, det defense.Detector, scratch string, backend func(cluster.SessionServer) cluster.SessionServer) (*rig, error) {
	r := &rig{reg: telemetry.NewRegistry()}
	r.rec = trace.NewRecorder(trace.Config{Exemplars: 64, SLO: 500 * time.Millisecond})
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "journal-")
	if err != nil {
		return nil, err
	}
	r.jdir = dir
	if r.jnl, err = journal.Open(journal.Config{Dir: dir, Metrics: r.reg}); err != nil {
		r.close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	r.srv = stream.NewServer(stream.ServerConfig{
		Detector:       det,
		Cascade:        true,
		CascadeFloorDB: cascadeFloorDB,
		Metrics:        r.reg,
		Trace:          r.rec,
		Journal:        r.jnl,
	})
	if !w.routed {
		l, err := r.listen()
		if err != nil {
			r.close()
			return nil, err
		}
		r.serve(func() error { return r.srv.ServeListener(l) })
		r.target = l.Addr().String()
		return r, nil
	}

	var ss cluster.SessionServer = r.srv
	if backend != nil {
		ss = backend(ss)
	}
	bl, err := r.listen()
	if err != nil {
		r.close()
		return nil, err
	}
	r.be = cluster.NewBackend(ss, 0)
	r.serve(func() error { return r.be.Serve(bl) })
	r.router, err = cluster.NewRouter(cluster.RouterConfig{Nodes: []string{bl.Addr().String()}, Metrics: r.reg})
	if err != nil {
		r.close()
		return nil, err
	}
	rl, err := r.listen()
	if err != nil {
		r.close()
		return nil, err
	}
	r.serve(func() error { return r.router.ServeListener(rl) })
	r.target = rl.Addr().String()
	for deadline := time.Now().Add(10 * time.Second); !r.router.View().Nodes[0].Healthy; {
		if time.Now().After(deadline) {
			r.close()
			return nil, errors.New("router never reached its backend")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return r, nil
}

func (r *rig) listen() (net.Listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		r.listeners = append(r.listeners, l)
	}
	return l, err
}

func (r *rig) serve(fn func() error) {
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}()
}

// close stops every listener and server, waits for their goroutines,
// closes the journal and removes its directory.
func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if r.router != nil {
		r.router.Shutdown(ctx)
	}
	if r.be != nil {
		r.be.Close()
	}
	for _, l := range r.listeners {
		l.Close()
	}
	if r.srv != nil {
		r.srv.Shutdown(ctx)
	}
	r.serving.Wait()
	if r.jnl != nil {
		r.jnl.Close()
	}
	if r.jdir != "" {
		os.RemoveAll(r.jdir)
	}
}

// timedDetector counts and times the detector calls the guards make. It
// only measures while on is set, so the traced run can time a phase
// with it passed through.
type timedDetector struct {
	defense.Detector
	on    *atomic.Bool
	calls atomic.Int64
	ns    atomic.Int64
}

func (d *timedDetector) Predict(x []float64) bool {
	if !d.on.Load() {
		return d.Detector.Predict(x)
	}
	t := time.Now()
	v := d.Detector.Predict(x)
	d.ns.Add(int64(time.Since(t)))
	d.calls.Add(1)
	return v
}

func (d *timedDetector) Score(x []float64) float64 {
	if !d.on.Load() {
		return d.Detector.Score(x)
	}
	t := time.Now()
	v := d.Detector.Score(x)
	d.ns.Add(int64(time.Since(t)))
	d.calls.Add(1)
	return v
}

// timedBackend records one span per session the cluster backend serves,
// so the relay's share of a routed session can be read off as the
// client's session time minus the backend's.
type timedBackend struct {
	cluster.SessionServer
	on *atomic.Bool
	tr *tracer
}

func (b *timedBackend) ServeSessionKeyed(key uint64, r io.Reader, w io.Writer) error {
	if !b.on.Load() {
		return b.SessionServer.ServeSessionKeyed(key, r, w)
	}
	start := b.tr.now()
	err := b.SessionServer.ServeSessionKeyed(key, r, w)
	b.tr.add(span{Name: "backend.serve", Start: start, End: b.tr.now()})
	return err
}
