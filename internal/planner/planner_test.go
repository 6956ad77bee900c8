package planner

import "testing"

// Shapes used across the boundary tests.
var (
	chainShape = Shape{Selectors: 2, HasDescendant: true,
		LeadingDescendantLabel: true, DescendantChainOnly: true}
	headSkipShape = Shape{Selectors: 2, HasDescendant: true,
		LeadingDescendantLabel: true}
	childShape    = Shape{Selectors: 2}
	generalShape  = Shape{Selectors: 3, HasDescendant: true, HasWildcard: true}
	wildcardShape = Shape{Selectors: 1, HasWildcard: true}
)

func decide(t *testing.T, sh Shape, d DocStats, c Constraints, wantStrategy Strategy, wantRule string) {
	t.Helper()
	p := Decide(sh, d, c)
	if p.Strategy != wantStrategy || p.Rule != wantRule {
		t.Fatalf("Decide(%+v, %+v, %+v) = {%v %q}, want {%v %q}",
			sh, d, c, p.Strategy, p.Rule, wantStrategy, wantRule)
	}
	if p.Rationale == "" {
		t.Fatalf("rule %q has no rationale", p.Rule)
	}
}

// TestForcedEngine pins WithEngine as a constraint, not a parallel path.
func TestForcedEngine(t *testing.T) {
	forced := Constraints{Forced: true, ForcedStrategy: StrategySurfer}
	decide(t, chainShape, DocStats{}, forced, StrategySurfer, "forced-engine")
	decide(t, chainShape, DocStats{Indexed: true}, forced, StrategySurfer, "forced-engine")
	// Baseline engines have no plane surface, so no upgrade.
	dom := Constraints{Forced: true, ForcedStrategy: StrategyDOM}
	decide(t, chainShape, DocStats{Indexed: true}, dom, StrategyDOM, "forced-engine")
	// A forced accelerated engine runs as configured, even with stats that
	// would select stackless unforced...
	acc := Constraints{Forced: true, ForcedStrategy: StrategyHeadSkip}
	decide(t, chainShape, DocStats{}, acc, StrategyHeadSkip, "forced-engine")
	decide(t, chainShape, DocStats{DenseMatches: true}, acc, StrategyHeadSkip, "forced-engine")
	decide(t, chainShape, DocStats{}, Constraints{Forced: true, ForcedStrategy: StrategyHeadSkip, NoHeadSkip: true},
		StrategyHeadSkip, "forced-engine")
	// ...and upgrades to the planes: the plane-backed run is the same
	// engine fed from precomputed masks.
	decide(t, chainShape, DocStats{Indexed: true}, acc, StrategyIndexed, "indexed-available")
	// ...unless the watchdog needs the streaming path.
	accWD := Constraints{Forced: true, ForcedStrategy: StrategyHeadSkip, WatchdogArmed: true}
	decide(t, chainShape, DocStats{Indexed: true}, accWD, StrategyHeadSkip, "forced-engine")
}

// TestIndexedAvailable pins the warm path: an index in hand wins over every
// scan strategy, except under a watchdog deadline (the plane run is atomic).
func TestIndexedAvailable(t *testing.T) {
	decide(t, headSkipShape, DocStats{Indexed: true}, Constraints{},
		StrategyIndexed, "indexed-available")
	decide(t, chainShape, DocStats{Indexed: true, DenseMatches: true}, Constraints{},
		StrategyIndexed, "indexed-available")
	decide(t, headSkipShape, DocStats{Indexed: true}, Constraints{WatchdogArmed: true},
		StrategyHeadSkip, "watchdog-streams")
}

// TestIndexAmortizes pins the break-even boundary at IndexAmortizeRuns.
func TestIndexAmortizes(t *testing.T) {
	decide(t, childShape, DocStats{ExpectedRuns: IndexAmortizeRuns}, Constraints{},
		StrategyIndexed, "index-amortizes")
	decide(t, childShape, DocStats{ExpectedRuns: IndexAmortizeRuns - 1}, Constraints{},
		StrategySkip, "child-skipping")
	decide(t, generalShape, DocStats{ExpectedRuns: IndexAmortizeRuns}, Constraints{},
		StrategyIndexed, "index-amortizes")
	// A streamed document cannot be indexed: no bytes in memory to classify.
	decide(t, childShape, DocStats{Streaming: true, ExpectedRuns: 100}, Constraints{},
		StrategySkip, "child-skipping")
	// The watchdog blocks the atomic plane run the advice would lead to.
	decide(t, childShape, DocStats{ExpectedRuns: 100}, Constraints{WatchdogArmed: true},
		StrategySkip, "child-skipping")
	// Head-skip shapes never take the advice on sparse labels: memmem reads
	// raw bytes either way, so the build is never repaid (DESIGN.md §11)...
	decide(t, headSkipShape, DocStats{ExpectedRuns: 100}, Constraints{},
		StrategyHeadSkip, "head-skip")
	// ...but dense labels neutralize head-skip and the advice returns.
	decide(t, headSkipShape, DocStats{ExpectedRuns: IndexAmortizeRuns, DenseMatches: true},
		Constraints{}, StrategyIndexed, "index-amortizes")
	// An index already in hand is sunk cost: even head-skip serves from it.
	decide(t, headSkipShape, DocStats{Indexed: true}, Constraints{},
		StrategyIndexed, "indexed-available")
}

// TestStacklessRules pins when the depth-register automaton wins: pure
// descendant label chains with head-skip out of play — disabled by the
// caller, or neutralized by dense labels (EXPERIMENTS.md measurements).
func TestStacklessRules(t *testing.T) {
	decide(t, chainShape, DocStats{}, Constraints{NoHeadSkip: true},
		StrategyStackless, "stackless-registers")
	decide(t, chainShape, DocStats{DenseMatches: true}, Constraints{},
		StrategyStackless, "stackless-dense")
	// Sparse labels with head-skip available: the head-skip scan is measured
	// faster, so the chain stays on the accelerated engine.
	decide(t, chainShape, DocStats{}, Constraints{},
		StrategyHeadSkip, "head-skip")
	// Not a pure chain: the automaton does not support the query.
	decide(t, generalShape, DocStats{DenseMatches: true}, Constraints{},
		StrategyStandard, "depth-stack")
	decide(t, generalShape, DocStats{}, Constraints{NoHeadSkip: true},
		StrategyStandard, "depth-stack")
}

// TestScanFlavors pins the accelerated engine's flavor naming.
func TestScanFlavors(t *testing.T) {
	decide(t, headSkipShape, DocStats{}, Constraints{}, StrategyHeadSkip, "head-skip")
	decide(t, childShape, DocStats{}, Constraints{}, StrategySkip, "child-skipping")
	decide(t, wildcardShape, DocStats{}, Constraints{}, StrategySkip, "child-skipping")
	decide(t, generalShape, DocStats{}, Constraints{}, StrategyStandard, "depth-stack")
}

// TestDecideDeterministic: Decide is pure — the same triple yields the same
// plan, rationale included, which is what keeps Explain output stable.
func TestDecideDeterministic(t *testing.T) {
	d := DocStats{Bytes: 1 << 20, ExpectedRuns: 3}
	for _, sh := range []Shape{chainShape, headSkipShape, childShape, generalShape} {
		a := Decide(sh, d, Constraints{})
		for i := 0; i < 10; i++ {
			if b := Decide(sh, d, Constraints{}); b != a {
				t.Fatalf("Decide not deterministic: %+v vs %+v", a, b)
			}
		}
	}
}

// TestPredictRuns pins the serving layer's sighting→runs prediction and its
// interlock with ShouldIndex: the default promotion point is the second
// sighting, reproducing the daemon's historical seen-≥2 rule.
func TestPredictRuns(t *testing.T) {
	cases := []struct{ seen, want int }{
		{-1, 0}, {0, 0}, {1, IndexAmortizeRuns / 2}, {2, IndexAmortizeRuns}, {3, 12},
	}
	for _, c := range cases {
		if got := PredictRuns(c.seen); got != c.want {
			t.Fatalf("PredictRuns(%d) = %d, want %d", c.seen, got, c.want)
		}
	}
	if ShouldIndex(DocStats{ExpectedRuns: PredictRuns(1)}) {
		t.Fatal("one sighting should not promote")
	}
	if !ShouldIndex(DocStats{ExpectedRuns: PredictRuns(2)}) {
		t.Fatal("two sightings should promote")
	}
	if ShouldIndex(DocStats{ExpectedRuns: 100, Indexed: true}) {
		t.Fatal("already indexed: nothing to build")
	}
	if ShouldIndex(DocStats{ExpectedRuns: 100, Streaming: true}) {
		t.Fatal("streaming documents cannot be indexed")
	}
}

// TestStrategyNames pins the stable strategy vocabulary: metrics series and
// Explain output are built from these exact names.
func TestStrategyNames(t *testing.T) {
	want := map[Strategy]string{
		StrategyStandard: "standard", StrategySkip: "skip",
		StrategyHeadSkip: "head-skip", StrategyIndexed: "indexed",
		StrategyStackless: "stackless", StrategySki: "ski",
		StrategySurfer: "surfer", StrategyDOM: "dom",
	}
	if len(Strategies) != len(want) {
		t.Fatalf("Strategies has %d entries, want %d", len(Strategies), len(want))
	}
	seen := map[string]bool{}
	for _, s := range Strategies {
		name := s.String()
		if want[s] != name {
			t.Fatalf("strategy %d named %q, want %q", int(s), name, want[s])
		}
		if seen[name] {
			t.Fatalf("duplicate strategy name %q", name)
		}
		seen[name] = true
	}
}
