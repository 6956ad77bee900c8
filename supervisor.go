package rsonpath

import (
	"context"
	"errors"
	"io"
	"time"

	"rsonpath/internal/supervisor"
)

// This file is the public face of the execution supervisor (DESIGN.md §10):
// watchdog deadlines, the degradation ladder from the accelerated engines
// down to the DOM oracle, and bounded retries for transient reader errors.
// The generic machinery lives in internal/supervisor; the execution core
// (exec.go) adapts it to Query and QuerySet runs.

// Outcome records how a supervised run settled: how many engine runs it
// took, which engine produced the delivered result, and — when the
// degradation ladder ran — the primary engine's terminal error. A serving
// stack watches FallbackReason: a non-nil value with a nil run error means
// the query was answered, but by the slow trusted path, and the primary's
// fault deserves a report.
type Outcome struct {
	// Attempts is the total number of engine runs: 1 for a clean first
	// attempt, +1 per retry, +1 if the fallback ran.
	Attempts int
	// Engine names the engine that produced the final result (or final
	// error): the query's own engine, or "dom" after degradation.
	Engine string
	// FallbackReason is the primary engine's terminal error when the
	// fallback ran, nil otherwise. It is always an *InternalError (the only
	// degradable class).
	FallbackReason error
	// Duration is the wall-clock time of the whole supervised run, retries
	// and fallback included.
	Duration time.Duration
}

// Degraded reports whether the result was produced by the fallback engine.
func (o Outcome) Degraded() bool { return o.FallbackReason != nil }

// FallbackMode selects when a supervised run degrades to the DOM oracle.
type FallbackMode int

const (
	// FallbackOnInternalError (the default) re-runs the query on the DOM
	// oracle when the primary engine fails with an *InternalError — a
	// contained panic or another internal fault. Malformed input, resource
	// limits, and cancellation are never laddered: those are the input's or
	// the caller's verdict, and the oracle would only repeat it slowly.
	FallbackOnInternalError FallbackMode = iota
	// FallbackOff disables the degradation ladder; internal errors surface
	// to the caller as they do on the unsupervised entry points.
	FallbackOff
)

// WithTimeout arms a watchdog deadline on every run of the query: streaming
// runs observe it within one window refill (even against a blocked reader),
// in-memory runs on streaming engines within one stream window, and the
// lines family applies it per record. The run returns an error wrapping
// ErrCanceled and context.DeadlineExceeded. EngineDOM runs, which are
// atomic, check the deadline only at entry. 0 (the default) disables the
// watchdog.
func WithTimeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// WithFallback selects the degradation-ladder mode for the supervised entry
// points (RunSupervised, RunReaderSupervised, and the lines family). The
// default is FallbackOnInternalError.
//
// Note for EngineSki: its wildcard deliberately skips object fields, so a
// degraded run reports the oracle's (standard) answer, not ski's. Callers
// pinning ski's restricted semantics should pass FallbackOff.
func WithFallback(m FallbackMode) Option {
	return func(c *config) { c.fallback = m }
}

// WithRetry bounds re-running the streaming supervised entry points on
// transient reader errors: an attempt whose error satisfies retryable is
// re-run up to max more times, sleeping backoff in between (the sleep
// observes the context). Retries re-open the input source. The default is
// no retries; errors the predicate rejects are never retried. Retry applies
// only to RunReaderSupervised — in-memory runs have no transient failures
// worth repeating.
func WithRetry(max int, backoff time.Duration, retryable func(error) bool) Option {
	return func(c *config) {
		c.retryMax = max
		c.retryBackoff = backoff
		c.retryable = retryable
	}
}

// supervision is the resolved supervisor configuration carried by Query and
// QuerySet.
type supervision struct {
	timeout      time.Duration
	fallback     FallbackMode
	retryMax     int
	retryBackoff time.Duration
	retryable    func(error) bool
}

// resolvePolicy resolves the options into the compiled part of the core's
// policy (exec.go).
func (c *config) resolvePolicy() policy {
	return policy{window: c.window, limits: c.resolveLimits(), sup: supervision{
		timeout:      c.timeout,
		fallback:     c.fallback,
		retryMax:     c.retryMax,
		retryBackoff: c.retryBackoff,
		retryable:    c.retryable,
	}}
}

// policy translates the supervision config for internal/supervisor. The
// core arms the watchdog deadline itself; the retry leg is enabled only
// for reopenable streams.
func (s supervision) policy(reopenable bool) supervisor.Policy {
	p := supervisor.Policy{
		FallbackOff: s.fallback == FallbackOff,
		Degradable:  degradable,
	}
	if reopenable {
		p.RetryMax = s.retryMax
		p.RetryBackoff = s.retryBackoff
		p.Retryable = s.retryable
	}
	return p
}

// degradable classifies the errors that trigger the ladder: internal faults
// only. Malformed input and limits are authoritative; cancellation is the
// caller's decision.
func degradable(err error) bool {
	var ie *InternalError
	return errors.As(err, &ie)
}

// RunSupervised is Run under the execution supervisor: the run observes ctx
// and the configured deadline (WithTimeout), and an internal fault in the
// primary engine transparently re-runs the query on the DOM oracle
// (WithFallback to opt out). Matches are delivered to emit only once the
// run settles — exactly once, in document order, from whichever engine
// produced the final result — so a failed primary attempt never leaks
// partial output. The Outcome reports how the run settled and is valid even
// when the error is non-nil.
func (q *Query) RunSupervised(ctx context.Context, data []byte, emit func(pos int)) (Outcome, error) {
	return execute(ctx, q, source{data: data}, sink{pos: emit}, q.pol.settled())
}

// RunReaderSupervised is RunReader under the execution supervisor. Because
// a stream cannot be rewound, every attempt — the first run, each retry
// (WithRetry), and the DOM fallback — opens a fresh reader via open; if the
// reader it returns is an io.Closer it is closed when the attempt ends. The
// fallback buffers the whole document (the oracle cannot stream), and
// matches are delivered only once the run settles, so memory is bounded by
// the stream window plus the match offsets — or the document size if the
// ladder runs. The run observes ctx at every window refill, even while the
// reader blocks. Engines that cannot stream return
// ErrStreamingUnsupported; use RunSupervised with the buffered document
// instead.
func (q *Query) RunReaderSupervised(ctx context.Context, open func() (io.Reader, error), emit func(pos int)) (Outcome, error) {
	return execute(ctx, q, source{open: open}, sink{pos: emit}, q.pol.settled())
}

// RunSupervised is QuerySet.Run under the execution supervisor: the shared
// one-pass driver observes ctx and the configured deadline, and an internal
// fault degrades to per-query DOM-oracle runs whose union is replayed in
// the shared pass's order (by offset, then query index). Matches are
// delivered to emit only once the run settles; the Outcome reports which
// path produced them.
func (s *QuerySet) RunSupervised(ctx context.Context, data []byte, emit func(query, pos int)) (Outcome, error) {
	return execute(ctx, s, source{data: data}, sink{pair: emit}, s.pol.settled())
}
