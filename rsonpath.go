package rsonpath

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"rsonpath/internal/automaton"
	"rsonpath/internal/classifier"
	"rsonpath/internal/dom"
	"rsonpath/internal/engine"
	"rsonpath/internal/input"
	"rsonpath/internal/jsonpath"
	"rsonpath/internal/planner"
	"rsonpath/internal/ski"
	"rsonpath/internal/surfer"
)

// errPathSemantics rejects PathSemantics on streaming engines: reproducing
// access-path multiplicities would require unbounded working memory (§2).
var errPathSemantics = errors.New("rsonpath: path semantics requires EngineDOM")

// EngineKind selects the execution engine backing a Query.
type EngineKind int

const (
	// EngineRsonpath is the paper's engine: SWAR classification, skipping,
	// depth-stack simulation. The default.
	EngineRsonpath EngineKind = iota
	// EngineSurfer is the non-accelerated streaming baseline (full
	// fragment, no skipping).
	EngineSurfer
	// EngineSki is the JSONSki-analogue baseline (child and array-wildcard
	// selectors only; returns ErrUnsupportedQuery otherwise).
	EngineSki
	// EngineDOM parses the document into a tree and evaluates the query
	// recursively — the reference implementation. The only engine that
	// supports PathSemantics.
	EngineDOM
	// EngineStackless simulates the depth-register automata of §3.2 (no
	// stack at all); it supports only descendant-only label chains like
	// $..a..b and returns ErrUnsupportedQuery otherwise.
	EngineStackless
)

// String returns the engine name used in benchmark output.
func (k EngineKind) String() string {
	switch k {
	case EngineRsonpath:
		return "rsonpath"
	case EngineSurfer:
		return "surfer"
	case EngineSki:
		return "ski"
	case EngineDOM:
		return "dom"
	case EngineStackless:
		return "stackless"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// ErrUnsupportedQuery is matched (via errors.Is) by the Compile error of a
// query that uses selectors the chosen engine cannot execute (EngineSki's
// fragment and EngineStackless's descendant-only chains). The error names
// the refusing engine and the first selector it rejects.
var ErrUnsupportedQuery = errors.New("rsonpath: query uses selectors the chosen engine does not support")

// skiSelector reports whether EngineSki's fragment covers sel: a child
// label or a wildcard.
func skiSelector(sel *jsonpath.Selector) bool {
	return !sel.Descendant && !sel.SelectsIndices() && len(sel.Labels) <= 1
}

// stacklessSelector reports whether EngineStackless's fragment covers sel:
// a descendant with one label.
func stacklessSelector(sel *jsonpath.Selector) bool {
	return sel.Descendant && !sel.Wildcard && len(sel.Labels) == 1 && !sel.SelectsIndices()
}

// unsupported is the Compile error for a query outside kind's fragment:
// it names the engine and the first selector the fragment does not cover.
func unsupported(kind EngineKind, parsed *jsonpath.Query, covers func(*jsonpath.Selector) bool) error {
	for i := range parsed.Selectors {
		if sel := &parsed.Selectors[i]; !covers(sel) {
			return fmt.Errorf("%w: engine %s rejects selector %s", ErrUnsupportedQuery, kind, sel)
		}
	}
	return fmt.Errorf("%w: engine %s rejects the selector-free query %s", ErrUnsupportedQuery, kind, parsed)
}

// Optimizations toggles the accelerated engine's skipping techniques
// (§3.3 of the paper); all are enabled by default. Used by the ablation
// benchmarks; leave untouched otherwise.
type Optimizations struct {
	NoHeadSkip     bool // disable skipping to the first descendant label
	NoSkipChildren bool // disable fast-forwarding over rejected subtrees
	NoSkipSiblings bool // disable fast-forwarding after unitary matches
	NoSkipLeaves   bool // keep commas/colons always enabled
	// TailSkip enables the paper's §4.5 future-work classifier: in
	// non-initial descendant segments the engine fast-forwards to the next
	// occurrence of the sought label within the current element. Off by
	// default (the paper's configuration).
	TailSkip bool
}

// Option configures Compile.
type Option func(*config)

type config struct {
	kind      EngineKind
	kindSet   bool // WithEngine was given: the engine is a forced planner constraint
	opt       Optimizations
	semantics Semantics
	window    int // RunReader window size; 0 = DefaultStreamWindow

	// Resource limits (errors.go): 0 = default, negative = unlimited.
	maxDepth    int
	maxMatches  int
	maxDocBytes int

	// Supervision (supervisor.go): watchdog deadline, degradation ladder,
	// retry policy.
	timeout      time.Duration
	fallback     FallbackMode
	retryMax     int
	retryBackoff time.Duration
	retryable    func(error) bool
}

// WithEngine pins the execution engine. Under the planner this is a
// constraint — the plan is forced to the chosen engine — not a separate
// dispatch path; an accelerated engine in hand of an IndexedDocument still
// serves from the index (the plane-backed run is the same engine fed from
// precomputed masks).
func WithEngine(kind EngineKind) Option {
	return func(c *config) { c.kind = kind; c.kindSet = true }
}

// WithOptimizations overrides the accelerated engine's skipping toggles.
func WithOptimizations(o Optimizations) Option {
	return func(c *config) { c.opt = o }
}

// runner is the common surface of the engines.
type runner interface {
	Run(data []byte, emit func(pos int)) error
}

// planeRunner is the surface of the accelerated engine that evaluates over
// an IndexedDocument's precomputed mask planes.
type planeRunner interface {
	RunPlanes(in input.Input, planes *classifier.Planes, emit func(pos int)) error
}

// Query is a compiled JSONPath query, immutable and safe for concurrent
// use.
type Query struct {
	source string
	parsed *jsonpath.Query
	kind   EngineKind
	run    runner
	pol    policy // limits, stream window and supervision (exec.go)
	// oracle is the DOM reference evaluator the supervisor degrades to on
	// internal faults; nil when the query is already EngineDOM.
	oracle *domRunner

	// Plan layer (planner_api.go): whether the engine was forced with
	// WithEngine, the query-shape facts the decision rules consume, and
	// the compiled alternate runner the planner may dispatch to. stackless
	// is non-nil only for descendant-only label chains compiled without a
	// forced engine.
	forced     bool
	noHeadSkip bool
	shape      planner.Shape
	stackless  runner
}

// Compile parses and compiles a JSONPath expression.
func Compile(query string, opts ...Option) (*Query, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	parsed, err := jsonpath.Parse(query)
	if err != nil {
		return nil, err
	}
	if c.semantics == PathSemantics && c.kind != EngineDOM {
		return nil, errPathSemantics
	}
	pol := c.resolvePolicy()
	lim := pol.limits
	q := &Query{source: query, parsed: parsed, kind: c.kind, pol: pol,
		forced: c.kindSet, noHeadSkip: c.opt.NoHeadSkip, shape: shapeOf(parsed)}
	if c.kind != EngineDOM {
		q.oracle = &domRunner{query: parsed, semantics: dom.NodeSemantics, maxDepth: lim.maxDepth}
	}
	switch c.kind {
	case EngineDOM:
		sem := dom.NodeSemantics
		if c.semantics == PathSemantics {
			sem = dom.PathSemantics
		}
		q.run = &domRunner{query: parsed, semantics: sem, maxDepth: lim.maxDepth}
	case EngineSki:
		// EngineSki is exempt from the depth limit: its recursion is bounded
		// by the query length and its fast-forwards use O(1) memory.
		q.run, err = ski.New(parsed)
		if errors.Is(err, ski.ErrUnsupported) {
			err = unsupported(c.kind, parsed, skiSelector)
		}
	case EngineStackless:
		var sl *engine.Stackless
		sl, err = engine.NewStackless(parsed)
		if errors.Is(err, engine.ErrNotStackless) {
			err = unsupported(c.kind, parsed, stacklessSelector)
		}
		if err == nil {
			sl.LimitDepth(lim.maxDepth)
			q.run = sl
		}
	case EngineSurfer:
		var dfa *automaton.DFA
		dfa, err = automaton.Compile(parsed, automaton.Options{})
		if err == nil {
			sf := surfer.New(dfa)
			sf.LimitDepth(lim.maxDepth)
			q.run = sf
		}
	default:
		var dfa *automaton.DFA
		dfa, err = automaton.Compile(parsed, automaton.Options{})
		if err == nil {
			q.run = engine.New(dfa, engine.Options{
				DisableHeadSkip:     c.opt.NoHeadSkip,
				DisableSkipChildren: c.opt.NoSkipChildren,
				DisableSkipSiblings: c.opt.NoSkipSiblings,
				DisableSkipLeaves:   c.opt.NoSkipLeaves,
				EnableTailSkip:      c.opt.TailSkip,
				MaxDepth:            lim.maxDepth,
				MaxDocBytes:         lim.maxDocBytes,
			})
		}
	}
	if err != nil {
		return nil, err
	}
	// Compile the planner's alternate runner: for descendant-only label
	// chains without a forced engine the depth-register automaton is
	// dispatched when head-skip is out of play (DESIGN.md §13). Compilation
	// is a few label slices — cheap enough to do eagerly.
	if !c.kindSet && c.kind == EngineRsonpath && q.shape.DescendantChainOnly {
		if sl, slErr := engine.NewStackless(parsed); slErr == nil {
			sl.LimitDepth(lim.maxDepth)
			q.stackless = sl
		}
	}
	return q, nil
}

// MustCompile is Compile that panics on error, for fixed queries.
func MustCompile(query string, opts ...Option) *Query {
	q, err := Compile(query, opts...)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the canonical form of the query.
func (q *Query) String() string { return q.parsed.String() }

// Source returns the query text as passed to Compile.
func (q *Query) Source() string { return q.source }

// Run streams the document once, calling emit with the byte offset of the
// first character of every matched value, in document order. The execution
// strategy is chosen by the planner (DESIGN.md §13); Explain exposes the
// decision and WithEngine pins it.
//
// Malformed input surfaces as *MalformedError, a configured limit being hit
// as *LimitError, a WithTimeout deadline as an error wrapping ErrCanceled,
// and an internal fault as *InternalError (never a panic); see DESIGN.md §9
// for the failure model.
func (q *Query) Run(data []byte, emit func(pos int)) error {
	_, err := execute(context.Background(), q, source{data: data}, sink{pos: emit}, q.pol)
	return err
}

// Count returns the number of matches in data.
func (q *Query) Count(data []byte) (int, error) {
	n := 0
	err := q.Run(data, func(int) { n++ })
	return n, err
}

// MatchOffsets returns the byte offsets of all matched values.
func (q *Query) MatchOffsets(data []byte) ([]int, error) {
	var out []int
	err := q.Run(data, func(pos int) { out = append(out, pos) })
	return out, err
}

// MatchValues returns the raw bytes of every matched value. The returned
// slices alias data. On the first extraction failure the scan is abandoned:
// the values extracted so far are returned together with the extraction
// error (a truncated match means the document cannot be trusted beyond it,
// and scanning the remainder would be pure waste).
func (q *Query) MatchValues(data []byte) ([][]byte, error) {
	var out [][]byte
	_, err := execute(context.Background(), q, source{data: data},
		sink{value: func(_ int, v []byte) { out = append(out, v) }}, q.pol)
	if err != nil && !errors.Is(err, errTruncated) {
		return nil, err
	}
	return out, err
}

// CountReader streams the document from r and counts matches, with memory
// bounded by the configured stream window (see RunReader). EngineDOM, which
// cannot stream, falls back to buffering the whole document.
func (q *Query) CountReader(r io.Reader) (int, error) {
	n := 0
	if _, ok := q.run.(inputRunner); !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return 0, err
		}
		return q.Count(data)
	}
	err := q.RunReader(r, func(int) { n++ })
	return n, err
}

// dispatch, eval, hasOracle, runOracle and collect make Query the core's
// single-query evaluator (exec.go).

func (q *Query) dispatch(stats planner.DocStats) (planner.Plan, string, bool) {
	if _, ok := q.run.(planeRunner); !ok {
		// No plane surface (a baseline engine): an index in hand changes
		// nothing.
		stats.Indexed = false
	}
	p := q.plan(stats)
	r, label := q.runnerFor(p)
	_, streams := r.(inputRunner)
	return p, label, streams
}

func (q *Query) eval(p planner.Plan, data []byte, in input.Input, doc *IndexedDocument, s sink) error {
	r, _ := q.runnerFor(p)
	switch {
	case doc != nil:
		return q.run.(planeRunner).RunPlanes(doc.in, doc.planes, s.pos)
	case in != nil:
		return r.(inputRunner).RunInput(in, s.pos)
	default:
		return r.Run(data, s.pos)
	}
}

func (q *Query) hasOracle() bool { return q.oracle != nil }

func (q *Query) runOracle(data []byte, s sink) error { return q.oracle.Run(data, s.pos) }

func (q *Query) collect(buf *[]int) sink {
	return sink{pos: func(pos int) { *buf = append(*buf, pos) }}
}

// errTruncated is returned by ValueAt on values that do not end within the
// buffer.
var errTruncated = errors.New("rsonpath: truncated value")
