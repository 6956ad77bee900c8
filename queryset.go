package rsonpath

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"rsonpath/internal/automaton"
	"rsonpath/internal/classifier"
	"rsonpath/internal/dom"
	"rsonpath/internal/input"
	"rsonpath/internal/jsonpath"
	"rsonpath/internal/multiquery"
	"rsonpath/internal/planner"
)

// setRunner is the execution surface QuerySet needs from the one-pass
// driver; an interface so the fault-injection tests can interpose on it the
// way they do on Query.run.
type setRunner interface {
	Run(data []byte, emit func(query, pos int)) error
	RunInput(in input.Input, emit func(query, pos int)) error
	RunPlanes(in input.Input, planes *classifier.Planes, emit func(query, pos int)) error
	Len() int
}

// errSetEngine rejects QuerySet on engines other than the default: the
// one-pass driver is built on the accelerated engine's classification
// stream. Evaluate per-query with Compile for the baseline engines.
var errSetEngine = errors.New("rsonpath: QuerySet requires EngineRsonpath")

// QuerySet is a set of compiled JSONPath queries evaluated together in a
// single pass over each document: the quote/structural/depth classification
// stream — the dominant cost of a run — is computed once and shared by all
// queries, each of which keeps its own automaton state. For a service
// running many queries over the same document this replaces N classification
// passes with one; see DESIGN.md for the shared-skipping design and for when
// a loop of Query.Run is preferable.
//
// A QuerySet is immutable and safe for concurrent use.
type QuerySet struct {
	sources []string
	// parsed keeps the member queries' ASTs for the supervisor's per-query
	// DOM-oracle fallback (runOracle).
	parsed []*jsonpath.Query
	set    setRunner
	pol    policy // limits, stream window and supervision (exec.go)

	// Plan layer: whether WithEngine forced the engine, and the union shape
	// of the member queries. The shared one-pass driver is always the
	// accelerated engine, so the set's planning decisions are the
	// scan-vs-planes choice and the reported scan flavor, not an engine
	// choice.
	forced bool
	shape  planner.Shape
}

// CompileSet parses and compiles a set of JSONPath expressions for one-pass
// evaluation. The only supported engine is EngineRsonpath (the default);
// WithEngine(EngineRsonpath) forces it as a planner constraint, exactly as
// for a Query. Path semantics is not supported. An empty set is valid and
// matches nothing.
func CompileSet(queries []string, opts ...Option) (*QuerySet, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.kind != EngineRsonpath {
		return nil, errSetEngine
	}
	if c.semantics == PathSemantics {
		return nil, errPathSemantics
	}
	sources := append([]string(nil), queries...)
	dfas := make([]*automaton.DFA, len(queries))
	parsedAll := make([]*jsonpath.Query, len(queries))
	for i, src := range queries {
		parsed, err := jsonpath.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("query %d (%s): %w", i, src, err)
		}
		parsedAll[i] = parsed
		dfas[i], err = automaton.Compile(parsed, automaton.Options{})
		if err != nil {
			return nil, fmt.Errorf("query %d (%s): %w", i, src, err)
		}
	}
	pol := c.resolvePolicy()
	set := multiquery.New(dfas)
	set.Limits(pol.limits.maxDepth, pol.limits.maxDocBytes)
	return &QuerySet{sources: sources, parsed: parsedAll, set: set, pol: pol,
		forced: c.kindSet, shape: setShape(parsedAll)}, nil
}

// setShape is the union shape of the member queries: the shared pass can
// head-skip only when every member starts with a descendant label, and a
// mixed set plans like its most general member.
func setShape(parsedAll []*jsonpath.Query) planner.Shape {
	sh := planner.Shape{LeadingDescendantLabel: len(parsedAll) > 0}
	for _, parsed := range parsedAll {
		m := shapeOf(parsed)
		sh.Selectors += m.Selectors
		sh.HasDescendant = sh.HasDescendant || m.HasDescendant
		sh.HasWildcard = sh.HasWildcard || m.HasWildcard
		sh.LeadingDescendantLabel = sh.LeadingDescendantLabel && m.LeadingDescendantLabel
	}
	// DescendantChainOnly stays false: the shared driver has no
	// depth-register alternate, so the set never plans stackless.
	return sh
}

// plan runs the decision rules for the set over the given stats. The set's
// engine is structurally pinned to the accelerated one-pass driver, so only
// a forced engine (WithEngine(EngineRsonpath)), the watchdog, and the
// document stats bind.
func (s *QuerySet) plan(stats planner.DocStats) planner.Plan {
	return planner.Decide(s.shape, stats, planner.Constraints{
		Forced:         s.forced,
		ForcedStrategy: strategyForKind(EngineRsonpath, s.shape),
		WatchdogArmed:  s.pol.sup.timeout > 0,
	})
}

// Explain returns the execution plan the set would follow for a run over a
// document with the given stats; see Query.Explain. The engine is always
// EngineRsonpath — the shared one-pass driver — so the plan varies only in
// the scan-vs-planes choice and the reported scan flavor.
func (s *QuerySet) Explain(stats DocStats) Plan {
	p := publicPlan(s.plan(stats.internal()))
	p.Engine = EngineRsonpath
	return p
}

// MustCompileSet is CompileSet that panics on error, for fixed query sets.
func MustCompileSet(queries []string, opts ...Option) *QuerySet {
	s, err := CompileSet(queries, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of queries in the set.
func (s *QuerySet) Len() int { return s.set.Len() }

// Source returns the text of query i as passed to CompileSet.
func (s *QuerySet) Source(i int) string { return s.sources[i] }

// Run scans the document once, calling emit with the query index and the
// byte offset of the first character of every matched value. Matches arrive
// in document order; matches of different queries at the same offset arrive
// in query order. Empty and whitespace-only documents yield zero matches
// and a nil error.
//
// Malformed input surfaces as *MalformedError, a configured limit being hit
// as *LimitError, and an internal fault as *InternalError (never a panic).
func (s *QuerySet) Run(data []byte, emit func(query, pos int)) error {
	_, err := execute(context.Background(), s, source{data: data}, sink{pair: emit}, s.pol)
	return err
}

// Counts returns the number of matches of each query, indexed like the
// queries passed to CompileSet.
func (s *QuerySet) Counts(data []byte) ([]int, error) {
	counts := make([]int, s.set.Len())
	err := s.Run(data, func(q, _ int) { counts[q]++ })
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// MatchOffsets returns the byte offsets of every query's matched values,
// indexed like the queries passed to CompileSet.
func (s *QuerySet) MatchOffsets(data []byte) ([][]int, error) {
	out := make([][]int, s.set.Len())
	err := s.Run(data, func(q, pos int) { out[q] = append(out[q], pos) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// dispatch, eval, hasOracle, runOracle and collect make QuerySet the core's
// one-pass evaluator (exec.go).

func (s *QuerySet) dispatch(stats planner.DocStats) (planner.Plan, string, bool) {
	return s.plan(stats), "queryset", true
}

func (s *QuerySet) eval(_ planner.Plan, data []byte, in input.Input, doc *IndexedDocument, k sink) error {
	switch {
	case doc != nil:
		return s.set.RunPlanes(doc.in, doc.planes, k.pair)
	case in != nil:
		return s.set.RunInput(in, k.pair)
	default:
		return s.set.Run(data, k.pair)
	}
}

func (s *QuerySet) hasOracle() bool { return true }

// runOracle evaluates every member query on the DOM oracle over one parse
// of the document and replays the union in the shared pass's order: by
// offset, then by query index.
func (s *QuerySet) runOracle(data []byte, k sink) error {
	root, err := dom.ParseLimit(data, s.pol.limits.maxDepth)
	if err != nil {
		return err
	}
	type match struct{ query, pos int }
	var all []match
	for qi, parsed := range s.parsed {
		for _, n := range dom.Eval(root, parsed, dom.NodeSemantics) {
			all = append(all, match{query: qi, pos: n.Start})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].pos != all[j].pos {
			return all[i].pos < all[j].pos
		}
		return all[i].query < all[j].query
	})
	for _, m := range all {
		k.pair(m.query, m.pos)
	}
	return nil
}

func (s *QuerySet) collect(buf *[]int) sink {
	return sink{pair: func(query, pos int) { *buf = append(*buf, query, pos) }}
}
