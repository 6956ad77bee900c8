package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the module the span is named after. Spans of one
// operation share Op; Parent is the ID of the span that caused this one (0
// for an operation's root span).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Bytes is the number of document bytes the call processed, 0 where
	// the call is not over a document (parse, compile).
	Bytes int `json:"bytes"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, when the run
// ends, so that writing them costs the measured calls nothing. Safe for
// concurrent use: the serve workload's client workers share one tracer.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id, which processed bytes document bytes.
func (t *tracer) end(id, bytes int) time.Duration {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Bytes = now, bytes
	return s.dur()
}

// record times f as a closed span.
func (t *tracer) record(name string, parent, op, bytes int, f func()) time.Duration {
	id := t.begin(name, parent, op)
	f()
	return t.end(id, bytes)
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children that overlap each other
// (concurrent work under one parent) are counted once, and a child running
// past its parent's end is clipped to it.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if lo < hi {
				children[p.ID] = append(children[p.ID], [2]time.Duration{lo, hi})
			}
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered := time.Duration(0)
		curLo, curHi := time.Duration(-1), time.Duration(-1)
		for _, iv := range ivs {
			if iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += curHi - curLo
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerTotal sums duration, self time and bytes over the spans of one name.
type layerTotal struct {
	Total     time.Duration
	Self      time.Duration
	Bytes     int
	Durations []float64 // seconds, per call
}

func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := make(map[string]*layerTotal)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.Total += s.dur()
		lt.Self += self[s.ID]
		lt.Bytes += s.Bytes
		lt.Durations = append(lt.Durations, s.dur().Seconds())
	}
	return out
}
