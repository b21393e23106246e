package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministicFromSeed(t *testing.T) {
	const rate, span = 20.0, 60 * time.Second
	a := poissonSchedule(7, rate, span)
	b := poissonSchedule(7, rate, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, rate, span)) {
		t.Fatal("two seeds gave the same schedule")
	}
	var prev time.Duration
	for _, due := range a {
		if due < prev || due >= span {
			t.Fatalf("due time %v out of order or past the %v span", due, span)
		}
		prev = due
	}
	if want := rate * span.Seconds(); float64(len(a)) != want {
		t.Errorf("%d arrivals, want %v", len(a), want)
	}
	// Gaps between uniform order statistics are exponential with mean
	// 1/rate; a mean gap far off would mean a wrong process.
	if mean := a[len(a)-1].Seconds() / float64(len(a)-1); math.Abs(mean-1/rate) > 0.1/rate {
		t.Errorf("mean gap %.4fs, want about %.4fs", mean, 1/rate)
	}
}

func TestRelayAddedMatchesContainedBackendSpans(t *testing.T) {
	tr := newTracer()
	// Two overlapping client sessions; each backend span lies inside
	// its own session and ends just before it.
	s1 := span{ID: tr.add(span{Name: "session", Session: 1, Start: 0, End: 100e6}), Session: 1, Start: 0, End: 100e6}
	s2 := span{ID: tr.add(span{Name: "session", Session: 2, Start: 10e6, End: 60e6}), Session: 2, Start: 10e6, End: 60e6}
	b1 := span{ID: tr.add(span{Name: "backend.serve", Start: 2e6, End: 99e6}), Start: 2e6, End: 99e6}
	b2 := span{ID: tr.add(span{Name: "backend.serve", Start: 12e6, End: 58e6}), Start: 12e6, End: 58e6}
	got := tr.relayAdded([]span{s1, s2}, []span{b1, b2})
	want := []float64{4, 3} // sorted by session end: s2 then s1
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("relay added %v ms, want %v", got, want)
	}
	if p := tr.spans[b2.ID-1].Parent; p != s2.ID {
		t.Errorf("backend span parent %d, want session span %d", p, s2.ID)
	}
}
