package main

import (
	"testing"
	"time"
)

func ns(n int) time.Duration { return time.Duration(n) }

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: ns(0), End: ns(100)},
		// Two overlapping children cover [10, 50): 40.
		{ID: 2, Parent: 1, Name: "a", Start: ns(10), End: ns(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ns(20), End: ns(50)},
		// A child running past its parent is clipped to [90, 100): 10.
		{ID: 4, Parent: 1, Name: "c", Start: ns(90), End: ns(120)},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 2, Name: "d", Start: ns(15), End: ns(20)},
		// A span whose parent was never closed is a root.
		{ID: 6, Parent: 99, Name: "e", Start: ns(0), End: ns(7)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 15, 3: 30, 4: 30, 5: 5, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	lt := layerTotals(append(spans, span{ID: 7, Parent: 1, Name: "a", Start: ns(60), End: ns(70), Bytes: 64}))
	if a := lt["a"]; len(a.Durations) != 2 || a.Total != 30 || a.Self != 25 || a.Bytes != 64 {
		t.Errorf("layer a = %+v, want 2 calls, 30 total, 25 self, 64 bytes", *a)
	}
	if op := lt["op"]; op.Self != 40 {
		t.Errorf("op self with the second a = %v, want 40", op.Self)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 1)
	tr.record("inner", root, 1, 10, func() { time.Sleep(time.Millisecond) })
	tr.begin("unfinished", root, 1)
	tr.end(root, 0)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot has %d spans, want the 2 closed ones", len(spans))
	}
	if spans[1].Parent != root || spans[1].Bytes != 10 || spans[1].dur() < time.Millisecond {
		t.Errorf("inner span = %+v", spans[1])
	}
	if self := selfTimes(spans)[root]; self < 0 || self > spans[0].dur()-spans[1].dur() {
		t.Errorf("root self time %v outside [0, %v]", self, spans[0].dur()-spans[1].dur())
	}
}
