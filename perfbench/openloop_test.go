package main

import (
	"math"
	"testing"
	"time"
)

// A refused request must miss every latency limit and count neither as
// goodput nor as capacity.
func TestRefusedRequestsCountAgainstTheDaemon(t *testing.T) {
	d := &doc{data: make([]byte, 1000)}
	start := time.Now()
	p := phaseResult{start: start, elapsed: 2 * time.Second}
	for i, kind := range []outcomeKind{okResponse, refused, okResponse, okResponse} {
		p.outcomes = append(p.outcomes, outcome{
			r:       &request{d: d},
			kind:    kind,
			latency: time.Duration(i+1) * time.Millisecond,
			done:    start.Add(time.Duration(i) * 400 * time.Millisecond),
		})
	}
	p.finish()
	if p.bytes != 3000 {
		t.Errorf("phase bytes = %d, want 3000 (refused request excluded)", p.bytes)
	}

	lat := latencies(p)
	if len(lat) != 4 {
		t.Fatalf("latencies = %v, want four latencies", lat)
	}
	if got := lat[1]; got != math.MaxFloat64 {
		t.Errorf("refused request's latency = %v ms, want infinitely late", got)
	}
	if p90, _ := percentile(lat, 0.9); p90 < 1e300 {
		t.Errorf("p90 with a refused request in four = %v ms, want past any limit", p90)
	}

	m, err := serveMetrics(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["capacity_rps"].Value; got != 1.5 {
		t.Errorf("capacity_rps = %v, want 1.5 (three answered in two seconds; refused request excluded)", got)
	}
	if got := m["throughput_gbps"].Value; got != 3000/2/1e9 {
		t.Errorf("throughput_gbps = %v, want 1.5e-06 (refused request excluded)", got)
	}
}
