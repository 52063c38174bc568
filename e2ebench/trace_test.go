package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredIntervals(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "handler", Start: 10, End: 30},
		{ID: 3, Parent: 1, Trace: 1, Name: "handler", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Trace: 1, Name: "late", Start: 90, End: 120},   // clipped at 100
		{ID: 5, Parent: 2, Trace: 1, Name: "kernel", Start: 12, End: 18},  // grandchild
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestAggregateSumsCallsPerRequest(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "shard", Label: "best-match", Start: 0, End: 10},
		{ID: 2, Trace: 1, Name: "shard", Label: "best-match", Start: 20, End: 25},
		{ID: 3, Trace: 2, Name: "shard", Label: "breadth", Start: 0, End: 7},
	}
	ls := aggregate(spans)
	if got := ls.dur["shard.best-match"]; len(got) != 1 || got[0] != 15.0/1e3 {
		t.Errorf("best-match per-request durations %v, want [0.015]", got)
	}
	if got := ls.dur["shard"]; len(got) != 2 {
		t.Errorf("unlabelled aggregate has %d requests, want 2", len(got))
	}
}

func TestReplayedSpanNestsInParent(t *testing.T) {
	tr := newTracer()
	start := tr.t0.Add(time.Millisecond)
	parent := tr.record("server.handler", "focus-cmp", 7, 0, start, start.Add(300*time.Microsecond))
	tr.replayed("goalrec.recommend", "focus-cmp", parent, 100*time.Microsecond)
	self := selfTimes(tr.spans)
	if got := self[parent]; got != (200 * time.Microsecond).Nanoseconds() {
		t.Errorf("handler self time %dns, want 200µs", got)
	}
	if k := tr.spans[1]; k.Trace != 7 || k.Parent != parent {
		t.Errorf("replayed span %+v not attached to request 7's handler", k)
	}
}
