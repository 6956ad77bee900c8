// Package planner is the execution-plan layer: it turns the shape of a
// compiled query, the run-time statistics of the document at hand, and the
// caller's resolved options into an ExecutionPlan — which execution
// strategy to run and why. Every public entry point of the library routes
// its dispatch through Decide, so the cold/warm/indexed decision the
// rsonpathd daemon makes for its clients is available to every library
// caller (DESIGN.md §13).
//
// The planner follows simdjson's "pick the cheapest mechanism per stage"
// design (Langdale & Lemire, PAPERS.md): each rule is a measured
// observation about when one mechanism beats another, never a guess. The
// rules and the measurements backing them:
//
//   - indexed: a document mask index serves classification — the dominant
//     cost of a run — from memory; warm runs are 3–5× faster than cold ones
//     and the build repays itself within ~IndexAmortizeRuns repeat queries
//     (BENCH_swar.json). Head-skip queries are excluded from the advice: a
//     sparse leading-label scan is dominated by memmem over raw bytes, which
//     an index cannot serve (DESIGN.md §11).
//   - stackless: for descendant-only label chains the depth-register
//     automaton (§3.2) beats the depth-stack simulation whenever head-skip
//     is not in play — either disabled by the caller (0.65 vs 0.54 GB/s on
//     Crossref, EXPERIMENTS.md) or useless because the sought label is
//     dense (≈1.5× on dense chains at every document size).
//   - head-skip: a leading descendant label on sparse documents is served
//     fastest by skipping straight to each occurrence (0.75 vs 0.65 GB/s
//     against stackless on Crossref).
//   - skip: child+wildcard-only queries use the engine's JSONSki-style
//     fast-forwarding repertoire (skip-children, skip-siblings).
//
// Decide is a pure function: the same (Shape, DocStats, Constraints)
// triple always produces the same Plan, which is what makes Explain output
// stable and the decision boundaries unit-testable.
package planner

import "fmt"

// Strategy is one execution mechanism the planner can select.
type Strategy int

const (
	// StrategyStandard is the accelerated engine's depth-stack simulation
	// with the full skipping repertoire — the paper's default configuration.
	StrategyStandard Strategy = iota
	// StrategySkip is the accelerated engine on a child+wildcard-only
	// query, where the JSONSki-style skip-children/skip-siblings
	// fast-forwards dominate (no descendant selector, so no head-skip).
	StrategySkip
	// StrategyHeadSkip is the accelerated engine on a query with a leading
	// descendant label: the engine skips straight to each occurrence of the
	// sought label instead of walking the document.
	StrategyHeadSkip
	// StrategyIndexed serves per-block classification from a prebuilt
	// document mask index (rsonpath.IndexedDocument) instead of re-running
	// the SWAR kernels.
	StrategyIndexed
	// StrategyStackless is the depth-register automaton of §3.2:
	// allocation-free, stack-free simulation for descendant-only label
	// chains.
	StrategyStackless
	// StrategySki is the JSONSki-analogue baseline engine (restricted
	// wildcard semantics; selected only when forced).
	StrategySki
	// StrategySurfer is the non-accelerated streaming baseline (selected
	// only when forced).
	StrategySurfer
	// StrategyDOM parses the document into a tree and evaluates
	// recursively — the reference oracle, and the only strategy that
	// supports path semantics.
	StrategyDOM
)

// String returns the stable strategy name used in Explain output, the
// daemon's /metrics and the CLI's -explain flag.
func (s Strategy) String() string {
	switch s {
	case StrategyStandard:
		return "standard"
	case StrategySkip:
		return "skip"
	case StrategyHeadSkip:
		return "head-skip"
	case StrategyIndexed:
		return "indexed"
	case StrategyStackless:
		return "stackless"
	case StrategySki:
		return "ski"
	case StrategySurfer:
		return "surfer"
	case StrategyDOM:
		return "dom"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// NumStrategies is the number of distinct strategies, sized for fixed
// per-strategy counter arrays.
const NumStrategies = 8

// Strategies lists every strategy in declaration order, for metrics
// renderers that emit one counter per kind.
var Strategies = [NumStrategies]Strategy{
	StrategyStandard, StrategySkip, StrategyHeadSkip, StrategyIndexed,
	StrategyStackless, StrategySki, StrategySurfer, StrategyDOM,
}

// IndexAmortizeRuns is the number of repeat runs over the same document at
// which building a mask index is predicted to have repaid its build cost.
// BENCH_swar.json: at n=8 repeat queries the indexed path is already ~2.3×
// faster than cold runs with the build included.
const IndexAmortizeRuns = 8

// Shape describes the compiled query in the terms the decision rules need.
// It is derived once at compile time from the parsed selectors.
type Shape struct {
	// Selectors is the number of query steps.
	Selectors int
	// HasDescendant reports any ..-selector.
	HasDescendant bool
	// HasWildcard reports any *-selector.
	HasWildcard bool
	// LeadingDescendantLabel reports that the first selector is a
	// descendant with at least one concrete label — the precondition of the
	// engine's head-skip.
	LeadingDescendantLabel bool
	// DescendantChainOnly reports a pure descendant label chain
	// ($..a..b.....z), the fragment the depth-register automaton supports.
	DescendantChainOnly bool
}

// DocStats carries what is known about the document (and the workload)
// at run time. The zero value means "nothing known" and always yields a
// safe plan.
type DocStats struct {
	// Bytes is the document size, 0 when unknown (streaming input).
	Bytes int
	// Streaming reports that the document arrives through a reader and is
	// never wholly in memory.
	Streaming bool
	// Indexed reports that a prebuilt IndexedDocument for these bytes is in
	// hand.
	Indexed bool
	// ExpectedRuns is the caller's prediction of how many runs this
	// document will serve in total (repeat queries, cache residency); 0
	// when unknown.
	ExpectedRuns int
	// DenseMatches is the caller's hint that the query's sought labels
	// occur densely in this document (most records contain them), which
	// neutralizes head-skip.
	DenseMatches bool
}

// Constraints is the part of the resolved compile options that binds the
// planner.
type Constraints struct {
	// Forced pins the strategy to ForcedStrategy: the caller chose an
	// engine with WithEngine, which the planner honors as a constraint
	// rather than running a parallel dispatch path.
	Forced bool
	// ForcedStrategy is the strategy of the forced engine.
	ForcedStrategy Strategy
	// NoHeadSkip reports the caller disabled head-skip
	// (WithOptimizations), which flips the best simulation strategy for
	// descendant-only chains.
	NoHeadSkip bool
	// WatchdogArmed reports a WithTimeout deadline: the plane-backed
	// indexed path is atomic and has no cancellation points, so it is
	// unavailable.
	WatchdogArmed bool
}

// Plan is the decision: a strategy, the stable identifier of the rule that
// selected it, and a human-readable rationale.
type Plan struct {
	Strategy  Strategy
	Rule      string
	Rationale string
}

// Decide maps (query shape × document stats × constraints) to a plan. It
// is pure and allocation-free apart from the rationale string.
func Decide(sh Shape, d DocStats, c Constraints) Plan {
	if c.Forced {
		return upgradeIndexed(Plan{Strategy: c.ForcedStrategy, Rule: "forced-engine",
			Rationale: "engine forced by WithEngine"}, d, c)
	}
	if d.Indexed {
		if c.WatchdogArmed {
			return Plan{Strategy: autoScan(sh), Rule: "watchdog-streams",
				Rationale: "watchdog deadline needs the streaming path's cancellation points; the atomic plane-backed run is unavailable"}
		}
		return Plan{Strategy: StrategyIndexed, Rule: "indexed-available",
			Rationale: "classification served from the prebuilt document mask index"}
	}
	if !d.Streaming && !c.WatchdogArmed && d.ExpectedRuns >= IndexAmortizeRuns &&
		(autoScan(sh) != StrategyHeadSkip || d.DenseMatches) {
		// Head-skip excluded: memmem reads raw document bytes either way, so
		// prebuilt planes never repay their build for a sparse leading-label
		// query (DESIGN.md §11). Dense labels neutralize head-skip, putting
		// classification back on the critical path where planes do pay.
		return Plan{Strategy: StrategyIndexed, Rule: "index-amortizes",
			Rationale: fmt.Sprintf("%d expected runs over the same document repay the one-time index build (break-even ~%d)",
				d.ExpectedRuns, IndexAmortizeRuns)}
	}
	if sh.DescendantChainOnly && c.NoHeadSkip {
		return Plan{Strategy: StrategyStackless, Rule: "stackless-registers",
			Rationale: "head-skip disabled; the depth-register automaton beats the depth-stack simulation on descendant-only chains"}
	}
	if sh.DescendantChainOnly && d.DenseMatches {
		return Plan{Strategy: StrategyStackless, Rule: "stackless-dense",
			Rationale: "sought labels are dense, so head-skip gains nothing; the allocation-free depth-register automaton is faster"}
	}
	p := Plan{Strategy: autoScan(sh)}
	switch p.Strategy {
	case StrategyHeadSkip:
		p.Rule, p.Rationale = "head-skip",
			"leading descendant label: skip straight to each occurrence of the sought label"
	case StrategySkip:
		p.Rule, p.Rationale = "child-skipping",
			"child/wildcard-only query: ski-style subtree and sibling fast-forwarding"
	default:
		p.Rule, p.Rationale = "depth-stack",
			"general query: depth-stack simulation with the full skipping repertoire"
	}
	return p
}

// autoScan names the accelerated engine's scan flavor for the query shape:
// the executing engine is the same, but the dominant skipping mechanism —
// what the plan reports — differs.
func autoScan(sh Shape) Strategy {
	switch {
	case sh.LeadingDescendantLabel:
		return StrategyHeadSkip
	case !sh.HasDescendant:
		return StrategySkip
	default:
		return StrategyStandard
	}
}

// upgradeIndexed lets a pinned accelerated engine still serve from an
// index in hand: WithEngine(EngineRsonpath) pins the engine, and the
// plane-backed run IS that engine fed from precomputed masks. Baseline
// engines have no plane surface and keep their pinned strategy.
func upgradeIndexed(p Plan, d DocStats, c Constraints) Plan {
	accelerated := p.Strategy == StrategyStandard || p.Strategy == StrategySkip ||
		p.Strategy == StrategyHeadSkip
	if d.Indexed && accelerated && !c.WatchdogArmed {
		return Plan{Strategy: StrategyIndexed, Rule: "indexed-available",
			Rationale: "classification served from the prebuilt document mask index"}
	}
	return p
}

// PredictRuns estimates the total future runs a document will serve from
// the number of times it has already been seen: repeat sightings are the
// strongest predictor of more to come (Zipfian request mixes), and a
// document seen twice is predicted to reach the index break-even point.
// The serving layer feeds this into DocStats.ExpectedRuns.
func PredictRuns(priorRuns int) int {
	if priorRuns <= 0 {
		return 0
	}
	return priorRuns * IndexAmortizeRuns / 2
}

// ShouldIndex reports whether building a mask index for the document is
// predicted to amortize — the library-side form of the promotion decision
// the daemon's document cache used to make with an ad-hoc seen-count rule.
func ShouldIndex(d DocStats) bool {
	return !d.Streaming && !d.Indexed && d.ExpectedRuns >= IndexAmortizeRuns
}
