package rsonpath

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"rsonpath/internal/input"
	"rsonpath/internal/planner"
	"rsonpath/internal/supervisor"
)

// This file is the execution core (DESIGN.md §10): every public run method
// of Query and QuerySet is a thin wrapper over execute. The core owns the
// policy — the document-size and match limits, the watchdog and context
// cancellation, the panic guard, and supervised buffer-then-deliver with
// the DOM ladder and retry. Query and QuerySet differ only in the
// evaluator they pass in.

// evaluator is the part of a run that differs between Query and QuerySet:
// the plan, the engine surfaces, and the DOM oracle. Query passes its
// planned single-query runner; QuerySet passes the shared one-pass driver.
type evaluator interface {
	// dispatch plans a run over stats. It returns the plan, the label of
	// the engine that executes it (reported in errors and Outcomes), and
	// whether that engine can read a stream.
	dispatch(stats planner.DocStats) (p planner.Plan, label string, streams bool)
	// eval runs the planned engine over exactly one of data, in, or the
	// planes of doc.
	eval(p planner.Plan, data []byte, in input.Input, doc *IndexedDocument, s sink) error
	// hasOracle reports whether runOracle is a separate, trusted evaluator.
	hasOracle() bool
	// runOracle evaluates the document on the DOM reference evaluator.
	runOracle(data []byte, s sink) error
	// collect returns a sink of the evaluator's emit shape that appends
	// every match to buf: an offset for a Query, a (query, offset) pair
	// for a QuerySet.
	collect(buf *[]int) sink
}

// sink is where a run's matches go, the one emit shape of the core.
// Exactly one field is set: Query runs report through pos, or through
// value, which the core feeds with each matched value's bytes; QuerySet
// runs report through pair.
type sink struct {
	pos   func(pos int)
	pair  func(query, pos int)
	value func(pos int, v []byte)
}

// replay delivers the matches a collect sink of s's shape buffered.
func (s sink) replay(buf []int) {
	if s.pair != nil {
		for i := 0; i+1 < len(buf); i += 2 {
			s.pair(buf[i], buf[i+1])
		}
		return
	}
	for _, pos := range buf {
		s.pos(pos)
	}
}

// bind turns a value sink into a pos sink that extracts each matched
// value: from data when the document is in memory (the slice aliases it),
// from the stream's window otherwise (valid only during the call). An
// extraction failure aborts the run with that error.
func (s sink) bind(data []byte, in input.Input) sink {
	if s.value == nil {
		return s
	}
	visit := s.value
	return sink{pos: func(pos int) {
		var v []byte
		var err error
		if data != nil {
			v, err = ValueAt(data, pos)
		} else {
			v, err = valueBytesAt(in, pos)
		}
		if err != nil {
			panic(abortRun{err})
		}
		visit(pos, v)
	}}
}

// source is the document of one run: in-memory bytes (data), a prebuilt
// index (doc, whose bytes are also data), a one-shot reader (r), or a
// reader opened afresh for every attempt (open).
type source struct {
	data []byte
	doc  *IndexedDocument
	r    io.Reader
	open func() (io.Reader, error)
}

func (s source) streamed() bool { return s.r != nil || s.open != nil }

// policy is how the core runs: the limits, stream window and supervision a
// Query or QuerySet was compiled with, and the entry point's delivery
// mode.
type policy struct {
	window int // 0 = DefaultStreamWindow
	limits limits
	sup    supervision
	// settle buffers the matches, settles the run under the supervisor's
	// DOM ladder (and, for a reopenable reader, its retry), and only then
	// delivers them. Otherwise each match is delivered as it is found.
	settle bool
	// keep, set with settle, receives the settled matches (as collect
	// buffers them) in place of the sink, reusing its capacity (the lines
	// family).
	keep *[]int
}

// settled is p in settle mode.
func (p policy) settled() policy {
	p.settle = true
	return p
}

// run is one execute call's resolved state, shared by its attempts.
type run struct {
	ev      evaluator
	src     source
	pol     policy
	plan    planner.Plan
	label   string
	streams bool
}

// execute runs ev over src into s under pol. The plan is made once, from
// what the source tells about the document; the watchdog deadline
// (WithTimeout) applies on top of ctx. The Outcome reports how a settled
// run ended; a direct run reports its single attempt.
func execute(ctx context.Context, ev evaluator, src source, s sink, pol policy) (Outcome, error) {
	x := run{ev: ev, src: src, pol: pol}
	x.plan, x.label, x.streams = ev.dispatch(planner.DocStats{
		Bytes: len(src.data), Streaming: src.streamed(), Indexed: src.doc != nil})
	if src.streamed() && !x.streams {
		return Outcome{Engine: x.label}, ErrStreamingUnsupported
	}
	if pol.sup.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pol.sup.timeout)
		defer cancel()
	}
	if !pol.settle {
		return Outcome{Attempts: 1, Engine: x.label}, x.attempt(ctx, s)
	}

	var buf []int
	if pol.keep != nil {
		buf = (*pol.keep)[:0]
	}
	into := ev.collect(&buf)
	var primaryErr error
	primary := supervisor.Attempt{Engine: x.label, Run: func(actx context.Context) error {
		buf = buf[:0]
		primaryErr = x.attempt(actx, into)
		return primaryErr
	}}
	var fb *supervisor.Attempt
	if ev.hasOracle() {
		fb = &supervisor.Attempt{Engine: "dom", Run: func(actx context.Context) error {
			buf = buf[:0]
			return x.fallback(actx, into)
		}}
	}
	so, err := supervisor.Run(ctx, pol.sup.policy(src.open != nil), primary, fb)
	// The Outcome is rebuilt from the attempts' own values rather than
	// copied from so: escape analysis ties so's pointers to the attempts,
	// and returning them would move the attempts and run state to the heap
	// on every call.
	oc := Outcome{Attempts: so.Attempts, Engine: x.label, Duration: so.Duration}
	if so.FallbackReason != nil {
		oc.Engine, oc.FallbackReason = "dom", primaryErr
	}
	if err != nil && degradable(err) {
		// Output from a faulted engine cannot be trusted: deliver nothing.
		// A tripped limit or malformed input keeps its valid prefix.
		buf = buf[:0]
	}
	if pol.keep != nil {
		*pol.keep = buf
		return oc, err
	}
	if len(buf) > 0 {
		derr := guardRun(oc.Engine, func() error {
			s.replay(buf)
			return nil
		})
		if err == nil {
			err = derr
		}
	}
	return oc, err
}

// attempt is one engine run over the source into s. It checks the
// document-size limit and ctx at entry, then runs the planes of an index
// (atomic), scans the bytes in place, or reads a buffered stream. A stream
// is read through a ctxReader whenever ctx can be canceled, so the run
// observes cancellation within one window refill even against a blocked
// reader. In-memory documents larger than one window take the same path
// under a cancelable ctx; smaller ones, and engines that cannot stream
// (EngineDOM), are checked at entry only: their whole run is "within one
// refill".
func (x *run) attempt(ctx context.Context, s sink) error {
	src := x.src
	if !src.streamed() {
		if err := x.pol.limits.checkDocBytes(len(src.data)); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return convertErr(err)
	}
	window := x.pol.window
	if window <= 0 {
		window = DefaultStreamWindow
	}
	var r io.Reader
	switch {
	case src.doc != nil && x.plan.Strategy == planner.StrategyIndexed:
		return x.eval(nil, nil, src.doc, s)
	case src.open != nil:
		opened, err := src.open()
		if err != nil {
			return err
		}
		defer closeIfCloser(opened)
		r = opened
	case src.r != nil:
		r = src.r
	case !x.streams || ctx.Done() == nil || len(src.data) <= window:
		return x.eval(src.data, nil, nil, s)
	default:
		r = bytes.NewReader(src.data)
	}
	if ctx.Done() != nil {
		cr := newCtxReader(ctx, r)
		defer cr.stop()
		r = cr
	}
	in := input.NewBuffered(r, x.pol.window)
	defer in.Release()
	if x.pol.limits.maxDocBytes > 0 {
		in.LimitDocBytes(x.pol.limits.maxDocBytes)
	}
	return x.eval(nil, in, nil, s)
}

// eval runs the planned engine under the panic guard, with value
// extraction and the match limit applied to s.
func (x *run) eval(data []byte, in input.Input, doc *IndexedDocument, s sink) error {
	s = x.pol.limits.wrap(s.bind(x.src.data, in))
	return guardRun(x.label, func() error {
		return x.ev.eval(x.plan, data, in, doc, s)
	})
}

// fallback is the ladder's DOM-oracle attempt, over the in-memory bytes or
// a fresh, fully buffered copy of a reopenable stream (the oracle cannot
// stream).
func (x *run) fallback(ctx context.Context, s sink) error {
	if err := ctx.Err(); err != nil {
		return convertErr(err)
	}
	data := x.src.data
	if x.src.streamed() {
		var err error
		if data, err = x.reopenAll(); err != nil {
			return err
		}
	}
	s = x.pol.limits.wrap(s)
	return guardRun("dom", func() error { return x.ev.runOracle(data, s) })
}

// reopenAll reads a fresh copy of a reopenable stream (the only streamed
// source a settled run has), respecting the document-size limit.
func (x *run) reopenAll() ([]byte, error) {
	r, err := x.src.open()
	if err != nil {
		return nil, fmt.Errorf("rsonpath: fallback could not reopen the input: %w", err)
	}
	defer closeIfCloser(r)
	max := x.pol.limits.maxDocBytes
	if max <= 0 {
		return io.ReadAll(r)
	}
	data, err := io.ReadAll(io.LimitReader(r, int64(max)+1))
	if err != nil {
		return nil, err
	}
	return data, x.pol.limits.checkDocBytes(len(data))
}

// closeIfCloser closes r when the source handed us something closable.
func closeIfCloser(r io.Reader) {
	if c, ok := r.(io.Closer); ok {
		c.Close()
	}
}
