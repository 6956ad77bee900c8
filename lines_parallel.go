package rsonpath

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
)

// This file is the concurrency half of the execution supervisor (DESIGN.md
// §10): a bounded worker pool over JSON Lines with per-record fault
// isolation, in-order delivery, and leak-free cancellation.

// lineJob carries one record through the worker pool. done (capacity 1)
// receives exactly one send when the job settles, whether a worker
// evaluated it or the dispatcher abandoned it during wind-down, so the
// consumer can always wait on it without blocking forever.
type lineJob struct {
	line    int
	record  []byte
	matches *[]int // pooled; nil for jobs settled during wind-down
	oc      Outcome
	err     error
	done    chan struct{}
}

// matchPool recycles the per-record match buffers of the parallel lines
// scans: without it every record allocates a fresh buffer, which at JSON
// Lines rates dominates the allocation profile. A buffer's lifecycle is Get
// at evaluation, travel with the job, Put after delivery. Safe because
// supervisor.Run is synchronous: no attempt goroutine outlives the
// evaluation that borrowed the buffer.
var matchPool = sync.Pool{New: func() any { return new([]int) }}

// runLinesParallel is the shared worker pool behind the RunLinesParallel
// entry points. A dispatcher goroutine reads records in input order and
// publishes each job twice: to ordered (the delivery queue, whose capacity
// of 2×workers bounds the records in flight — when the consumer lags, the
// dispatcher stalls rather than buffer the stream) and to work (the pool's
// feed). Workers settle jobs concurrently; the caller's goroutine drains
// ordered, waits for each job to settle, and delivers — so results arrive
// in input order no matter which worker finished first. A delivery error
// cancels the pool: the dispatcher stops reading, in-flight evaluations
// observe the cancellation, and every goroutine is joined before return.
func runLinesParallel(r io.Reader, workers int, ev evaluator, pol policy,
	deliver func(job *lineJob, matches []int) error) error {

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	work := make(chan *lineJob)
	ordered := make(chan *lineJob, 2*workers)
	readErr := make(chan error, 1)

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range work {
				job.matches = matchPool.Get().(*[]int)
				job.oc, job.err = settleRecord(ctx, ev, pol, job.record, job.matches)
				job.done <- struct{}{}
			}
		}()
	}

	go func() {
		defer close(ordered)
		defer close(work)
		err := forEachLine(r, func(line int, record []byte) error {
			job := &lineJob{
				line: line,
				// The workers outlive the reader's buffer reuse; each job
				// owns its record.
				record: append([]byte(nil), record...),
				done:   make(chan struct{}, 1),
			}
			select {
			case ordered <- job:
			case <-ctx.Done():
				return ctx.Err()
			}
			select {
			case work <- job:
			case <-ctx.Done():
				// The job is already queued for delivery but no worker will
				// take it; settle it here so the consumer never blocks on it.
				job.err = convertErr(ctx.Err())
				job.done <- struct{}{}
				return ctx.Err()
			}
			return nil
		})
		if errors.Is(err, context.Canceled) {
			// Our own wind-down, not the reader's failure: the consumer's
			// verdict is the one that matters.
			err = nil
		}
		readErr <- err
	}()

	var verr error
	for job := range ordered {
		<-job.done
		var matches []int
		if job.matches != nil {
			matches = *job.matches
		}
		// After a delivery error, only drain, so the dispatcher and workers
		// can wind down.
		if verr == nil {
			if derr := deliver(job, matches); derr != nil {
				verr = derr
				cancel()
			}
		}
		if job.matches != nil {
			matchPool.Put(job.matches)
		}
	}
	wg.Wait()
	rerr := <-readErr
	if verr != nil {
		return verr
	}
	return rerr
}

// RunLinesParallel is RunLines evaluated by a pool of workers: records are
// read in input order, evaluated concurrently, and delivered to visit in
// input order with the same per-record supervision as RunLines (deadline
// per record, degradation ladder per record, a bad record skipped without
// disturbing its neighbours). The number of records in flight is bounded by
// a small multiple of workers, so an unbounded stream never accumulates in
// memory even when visit is slow. visit returning a non-nil error stops the
// scan — remaining in-flight records are abandoned, every worker is joined
// before return, and the error is returned verbatim. workers ≤ 0 selects
// GOMAXPROCS. Unlike RunLines, visit runs on the calling goroutine while
// evaluation happens elsewhere; LineMatch.Record and friends remain valid
// only during the visit call.
func (q *Query) RunLinesParallel(r io.Reader, workers int, visit func(m LineMatch) error) error {
	return runLinesParallel(r, workers, q, q.pol, func(job *lineJob, offs []int) error {
		return visitLine(job.line, job.record, offs, job.oc, job.err, visit)
	})
}

// SetLineMatch describes the outcome of one newline-delimited record of a
// QuerySet lines scan.
type SetLineMatch struct {
	// Line is the 1-based record number (empty lines are skipped but
	// counted).
	Line int
	// Record is the raw record bytes; valid only during the visit call.
	Record []byte
	// Offsets are the match offsets within Record, indexed by query (as
	// passed to CompileSet); nil when the record failed. Valid only during
	// the visit call.
	Offsets [][]int
	// Err is non-nil when the record could not be evaluated; the scan skips
	// the record and continues.
	Err error
	// Outcome reports how the record's supervised evaluation settled. Valid
	// only during the visit call.
	Outcome *Outcome
}

// visitSetLine is visitLine for a QuerySet lines scan: the settled
// (query, offset) pairs become per-query offset lists.
func (s *QuerySet) visitSetLine(line int, record []byte, pairs []int, oc Outcome, err error, visit func(m SetLineMatch) error) error {
	if err == nil && len(pairs) == 0 && !oc.Degraded() {
		return nil
	}
	m := SetLineMatch{Line: line, Record: record, Outcome: &oc, Err: err}
	if err == nil && len(pairs) > 0 {
		m.Offsets = make([][]int, s.Len())
		for i := 0; i+1 < len(pairs); i += 2 {
			m.Offsets[pairs[i]] = append(m.Offsets[pairs[i]], pairs[i+1])
		}
	}
	return visit(m)
}

// RunLines streams newline-delimited JSON from r through the set's shared
// classification pass, one record at a time, with the same per-record
// supervision and visit contract as Query.RunLines: visit sees each record
// with at least one match, each failed record, and each degraded record.
func (s *QuerySet) RunLines(r io.Reader, visit func(m SetLineMatch) error) error {
	var buf []int
	return forEachLine(r, func(line int, record []byte) error {
		oc, err := settleRecord(context.Background(), s, s.pol, record, &buf)
		return s.visitSetLine(line, record, buf, oc, err, visit)
	})
}

// RunLinesParallel is QuerySet.RunLines evaluated by a pool of workers,
// with the same ordering, backpressure, and cancellation contract as
// Query.RunLinesParallel. workers ≤ 0 selects GOMAXPROCS.
func (s *QuerySet) RunLinesParallel(r io.Reader, workers int, visit func(m SetLineMatch) error) error {
	return runLinesParallel(r, workers, s, s.pol, func(job *lineJob, pairs []int) error {
		return s.visitSetLine(job.line, job.record, pairs, job.oc, job.err, visit)
	})
}
