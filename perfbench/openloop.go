package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the serve workload's load generator. internal/loadgen
// times each request from its actual send; an open loop must time it from
// when it was due, or a stall that delays later sends hides its own cost.

// outcomeKind classifies a request's fate. Connect failures (no
// connection) are kept apart from read failures (the connection broke or
// the body could not be read) because they point at different layers.
type outcomeKind int

const (
	okResponse outcomeKind = iota
	connectFailure
	readFailure
	refused     // 429 or 503: the daemon shed the request
	badStatus   // any other non-200 status
	wrongAnswer // 200 with counts the oracle disagrees with
)

type outcome struct {
	r    *request
	kind outcomeKind
	err  error
	// latency is measured from the due time in the open loop and from the
	// send in the closed loop.
	latency time.Duration
	// late is how far behind its schedule the generator handed the request
	// to a connection (open loop only).
	late time.Duration
	// done is when the response was read or the request failed; checking
	// the response afterwards is the benchmark's work, not the daemon's.
	done time.Time
}

// send makes one request and checks the response against the oracle.
func send(c *http.Client, base string, r *request) (o outcome) {
	o.r = r
	defer func() {
		if o.done.IsZero() {
			o.done = time.Now()
		}
	}()
	req, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		o.kind, o.err = badStatus, err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		o.kind, o.err = readFailure, fmt.Errorf("%s %s: %w", r.class, r.d.name, err)
		var op *net.OpError
		if errors.As(err, &op) && op.Op == "dial" {
			o.kind = connectFailure
		}
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	if err != nil {
		o.kind, o.err = readFailure, fmt.Errorf("%s %s: reading the response: %w", r.class, r.d.name, err)
		return o
	}
	if o.err = r.check(resp.StatusCode, body); o.err != nil {
		switch resp.StatusCode {
		case http.StatusOK:
			o.kind = wrongAnswer
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			o.kind = refused
		default:
			o.kind = badStatus
		}
	}
	return o
}

// phaseResult is one load phase.
type phaseResult struct {
	outcomes []outcome
	// elapsed runs from the first due time (open loop) or the start
	// (closed loop) to the last completion.
	elapsed time.Duration
	// bytes counts the document bytes of correctly answered requests.
	bytes int
	start time.Time
}

func (p *phaseResult) finish() {
	for _, o := range p.outcomes {
		if o.kind == okResponse {
			p.bytes += len(o.r.d.data)
		}
	}
}

// openLoop sends reqs at a fixed rate over the live server's connections.
// The dispatcher never blocks: its queue holds every request of the phase,
// so a stalled daemon shows as latency counted from the due time, not as a
// generator that quietly sends less.
func openLoop(live *liveServer, reqs []*request, rate float64) phaseResult {
	type job struct {
		i         int
		due, sent time.Time
	}
	queue := make(chan job, len(reqs))
	start := time.Now().Add(10 * time.Millisecond)
	res := phaseResult{outcomes: make([]outcome, len(reqs)), start: start}
	var wg sync.WaitGroup
	for _, c := range live.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				o := send(c, live.base, reqs[j.i])
				o.latency, o.late = o.done.Sub(j.due), j.sent.Sub(j.due)
				res.outcomes[j.i] = o
			}
		}()
	}
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- job{i: i, due: due, sent: time.Now()}
	}
	close(queue)
	wg.Wait()
	for _, o := range res.outcomes {
		res.elapsed = max(res.elapsed, o.done.Sub(start))
	}
	res.finish()
	return res
}

// closedLoop sends reqs back to back, one outstanding request per
// connection, until they run out or budget passes.
func closedLoop(live *liveServer, reqs []*request, budget time.Duration) phaseResult {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(budget)
	per := make([][]outcome, len(live.clients))
	var wg sync.WaitGroup
	for w, c := range live.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || time.Now().After(deadline) {
					return
				}
				s := time.Now()
				o := send(c, live.base, reqs[i])
				o.latency = o.done.Sub(s)
				per[w] = append(per[w], o)
			}
		}()
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start), start: start}
	for _, os := range per {
		res.outcomes = append(res.outcomes, os...)
	}
	res.finish()
	return res
}

// latencies returns a phase's latencies in milliseconds. A failed or
// refused request counts as infinitely late, so it misses any limit.
func latencies(p phaseResult) []float64 {
	out := make([]float64, len(p.outcomes))
	for i, o := range p.outcomes {
		out[i] = math.MaxFloat64
		if o.kind == okResponse {
			out[i] = ms(o.latency)
		}
	}
	return out
}

// summary counts the phase's outcomes by kind.
func (p *phaseResult) summary() string {
	return fmt.Sprintf("%d requests: %d ok, %d connect failures, %d read failures, %d refused, %d bad status, %d wrong answers",
		len(p.outcomes), p.count(okResponse), p.count(connectFailure), p.count(readFailure),
		p.count(refused), p.count(badStatus), p.count(wrongAnswer))
}

func (p *phaseResult) count(kind outcomeKind) int {
	n := 0
	for _, o := range p.outcomes {
		if o.kind == kind {
			n++
		}
	}
	return n
}

// serveMetrics computes the serve workload's end-to-end metrics: goodput
// at the open loop's fixed rate, and latency percentiles, capacity and
// throughput over the whole closed loop.
//
// The latencies come from the closed loop because, on the 2-vCPU VM the
// benchmark was sized on, open-loop latency at 200 req/s is set by how
// fast the host wakes the idle vCPUs for each request, which depends on
// its other tenants: two ten-run sets spread its p90 by 0.19 and 0.38 of
// the median, while the closed loop, which never lets the vCPUs idle,
// spread its capacity by 0.06-0.10 in the same sets. At higher rates
// queueing amplified every change of the host's speed instead.
func serveMetrics(open, closed phaseResult) (map[string]metric, error) {
	lat := latencies(closed)
	p50, _ := percentile(lat, 0.50)
	p90, beyond := percentile(lat, 0.90)
	fmt.Fprintf(os.Stderr, "perfbench: the closed loop's latency p90 has %d samples beyond it\n", beyond)
	openLat := latencies(open)
	o50, _ := percentile(openLat, 0.50)
	o90, _ := percentile(openLat, 0.90)
	fmt.Fprintf(os.Stderr, "perfbench: open loop latency from the due time (not reported): p50 %.3f ms, p90 %.3f ms\n", o50, o90)
	byClass := map[string][]float64{}
	for _, o := range closed.outcomes {
		if o.kind == okResponse {
			byClass[o.r.class] = append(byClass[o.r.class], gbps(len(o.r.d.data), o.latency))
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var classMedians []float64
	for _, c := range classes {
		classMedians = append(classMedians, median(byClass[c]))
	}
	geo, err := geomean(classMedians)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"throughput_gbps":    {gbps(closed.bytes, closed.elapsed), "GB/s"},
		"query_gbps_geomean": {geo, "GB/s"},
		"latency_p50_ms":     {p50, "ms"},
		"latency_p90_ms":     {p90, "ms"},
		"goodput_rps":        {float64(open.count(okResponse)) / open.elapsed.Seconds(), "req/s"},
		"capacity_rps":       {float64(closed.count(okResponse)) / closed.elapsed.Seconds(), "req/s"},
	}, nil
}
