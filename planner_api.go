package rsonpath

import (
	"fmt"

	"rsonpath/internal/jsonpath"
	"rsonpath/internal/planner"
)

// This file is the public face of the execution-plan layer (DESIGN.md
// §13): the execution core (exec.go) routes every run of Query and
// QuerySet through plan(), which turns the compiled query's shape, the run-time
// document stats, and the resolved options into an ExecutionPlan. The
// decision rules live in internal/planner; here they are bound to the
// compiled artifacts and exposed through Explain.

// IndexAmortizeRuns is the repeat-run count at which building a document
// mask index is predicted to have repaid its build (BENCH_swar.json); the
// planner advises StrategyIndexed at or above it.
const IndexAmortizeRuns = planner.IndexAmortizeRuns

// DocStats carries what the caller knows about the document (and the
// workload) at run time; the planner turns it into a strategy choice. The
// zero value means "nothing known" and always yields a safe plan.
type DocStats struct {
	// Bytes is the document size, 0 when unknown.
	Bytes int
	// Streaming reports the document arrives through a reader and is never
	// wholly in memory.
	Streaming bool
	// Indexed reports a prebuilt IndexedDocument for these bytes is in
	// hand (RunIndexed is available).
	Indexed bool
	// ExpectedRuns is the predicted total number of runs this document
	// will serve — repeat queries against the same bytes; 0 when unknown.
	// At IndexAmortizeRuns and above the planner advises building an
	// index.
	ExpectedRuns int
	// DenseMatches hints that the query's sought labels occur densely in
	// this document (most records contain them), which neutralizes
	// head-skip; known from prior runs or workload history.
	DenseMatches bool
}

// Plan is one planning decision: the chosen strategy, the engine that
// executes it, the stable identifier of the rule that selected it, and a
// human-readable rationale. Strategy and Rule values are stable across
// releases; Rationale wording is documentation, not API.
type Plan struct {
	// Strategy is the stable strategy name: "standard", "skip",
	// "head-skip", "indexed", "stackless", "ski", "surfer", or "dom".
	Strategy string
	// Engine is the engine kind that executes the strategy.
	Engine EngineKind
	// Rule identifies the decision rule that fired, e.g. "forced-engine",
	// "indexed-available", "index-amortizes", "stackless-registers".
	Rule string
	// Rationale explains the decision in one sentence.
	Rationale string
}

// String renders the plan in the form the CLI's -explain flag prints.
func (p Plan) String() string {
	return fmt.Sprintf("strategy=%s engine=%s rule=%s: %s", p.Strategy, p.Engine, p.Rule, p.Rationale)
}

// Explain returns the execution plan the query would follow for a run over
// a document with the given stats — the decision every run method makes,
// exposed for observability and for callers that
// orchestrate their own amortization (building an IndexedDocument when the
// plan says "indexed" but none exists yet). The output is deterministic:
// the same query and stats always produce the same plan.
func (q *Query) Explain(stats DocStats) Plan {
	return publicPlan(q.plan(stats.internal()))
}

// internal converts the public stats to the planner's.
func (d DocStats) internal() planner.DocStats {
	return planner.DocStats{
		Bytes:        d.Bytes,
		Streaming:    d.Streaming,
		Indexed:      d.Indexed,
		ExpectedRuns: d.ExpectedRuns,
		DenseMatches: d.DenseMatches,
	}
}

// publicPlan converts a planner decision to the public Plan.
func publicPlan(p planner.Plan) Plan {
	return Plan{
		Strategy:  p.Strategy.String(),
		Engine:    strategyEngine(p.Strategy),
		Rule:      p.Rule,
		Rationale: p.Rationale,
	}
}

// strategyEngine maps a strategy to the engine kind that executes it.
func strategyEngine(s planner.Strategy) EngineKind {
	switch s {
	case planner.StrategyStackless:
		return EngineStackless
	case planner.StrategySki:
		return EngineSki
	case planner.StrategySurfer:
		return EngineSurfer
	case planner.StrategyDOM:
		return EngineDOM
	default:
		// standard, skip, head-skip and indexed are all the accelerated
		// engine; indexed is the same automaton fed from precomputed masks.
		return EngineRsonpath
	}
}

// shapeOf derives the planner's query-shape facts from the parsed query.
func shapeOf(parsed *jsonpath.Query) planner.Shape {
	sh := planner.Shape{
		Selectors:           len(parsed.Selectors),
		HasDescendant:       parsed.HasDescendant(),
		DescendantChainOnly: len(parsed.Selectors) > 0,
	}
	for i := range parsed.Selectors {
		sel := &parsed.Selectors[i]
		if sel.Wildcard {
			sh.HasWildcard = true
		}
		if !stacklessSelector(sel) {
			sh.DescendantChainOnly = false
		}
	}
	if len(parsed.Selectors) > 0 {
		first := &parsed.Selectors[0]
		sh.LeadingDescendantLabel = first.Descendant && len(first.Labels) > 0
	}
	return sh
}

// strategyForKind maps a configured engine kind to its pinned strategy;
// the accelerated engine reports its scan flavor for the query shape.
func strategyForKind(kind EngineKind, sh planner.Shape) planner.Strategy {
	switch kind {
	case EngineSurfer:
		return planner.StrategySurfer
	case EngineSki:
		return planner.StrategySki
	case EngineDOM:
		return planner.StrategyDOM
	case EngineStackless:
		return planner.StrategyStackless
	default:
		switch {
		case sh.LeadingDescendantLabel:
			return planner.StrategyHeadSkip
		case !sh.HasDescendant:
			return planner.StrategySkip
		default:
			return planner.StrategyStandard
		}
	}
}

// plan runs the decision rules for this query over the given stats.
func (q *Query) plan(stats planner.DocStats) planner.Plan {
	return planner.Decide(q.shape, stats, planner.Constraints{
		Forced:         q.forced,
		ForcedStrategy: strategyForKind(q.kind, q.shape),
		NoHeadSkip:     q.noHeadSkip,
		WatchdogArmed:  q.pol.sup.timeout > 0,
	})
}

// runnerFor resolves a plan to the runner that executes it and the engine
// label reported in errors and Outcomes. StrategyIndexed resolves to the
// primary engine: the plane-backed run is that engine fed from the planes
// of an IndexedDocument in hand.
func (q *Query) runnerFor(p planner.Plan) (runner, string) {
	if p.Strategy == planner.StrategyStackless && q.stackless != nil {
		return q.stackless, EngineStackless.String()
	}
	return q.run, q.kind.String()
}
