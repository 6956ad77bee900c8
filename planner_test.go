package rsonpath

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"rsonpath/internal/classifier"
	"rsonpath/internal/engine"
	"rsonpath/internal/input"
)

// Tests for the execution-plan layer (DESIGN.md §13): the differential
// suite pinning planner-auto results to every forced engine over the
// compliance corpus, the Explain stability contract, the cache-key
// regression, and the runs following Explain's plan.

// autoVariants compiles the same query under every planner configuration
// whose dispatch can diverge: plain auto, auto with head-skip disabled
// (flips descendant chains to the stackless alternate), and the engine
// forced.
var autoVariants = []struct {
	name string
	opts []Option
}{
	{"auto", nil},
	{"auto-noheadskip", []Option{WithOptimizations(Optimizations{NoHeadSkip: true})}},
	{"forced", []Option{WithEngine(EngineRsonpath)}},
}

// runCorpus is every compliance case, slices included.
func plannerCorpus() []complianceCase {
	return append(append([]complianceCase(nil), complianceCases...), sliceComplianceCases...)
}

// TestPlannerDifferentialRun: planner-auto answers (BytesInput) must be
// byte-identical to every forced engine on the whole compliance corpus.
func TestPlannerDifferentialRun(t *testing.T) {
	for _, c := range plannerCorpus() {
		t.Run(c.name, func(t *testing.T) {
			for _, v := range autoVariants {
				q, err := Compile(c.query, v.opts...)
				if err != nil {
					t.Fatalf("[%s] compile: %v", v.name, err)
				}
				vals, err := q.MatchValues([]byte(c.doc))
				if err != nil {
					t.Fatalf("[%s] run: %v", v.name, err)
				}
				got := make([]string, len(vals))
				for i, b := range vals {
					got[i] = string(b)
				}
				if fmt.Sprint(got) != fmt.Sprint(c.want) {
					t.Fatalf("[%s] %s on %s:\n  got  %q\n  want %q (plan %v)",
						v.name, c.query, c.doc, got, c.want, q.Explain(DocStats{}))
				}
			}
			for _, kind := range []EngineKind{EngineRsonpath, EngineSurfer, EngineDOM, EngineSki, EngineStackless} {
				q, err := Compile(c.query, WithEngine(kind))
				if errors.Is(err, ErrUnsupportedQuery) {
					continue // restricted fragments (ski, stackless)
				}
				if err != nil {
					t.Fatalf("[%v] compile: %v", kind, err)
				}
				if kind == EngineSki && queryNeedsFullWildcard(c) {
					continue // ski's wildcard skips object fields by design
				}
				offs, err := q.MatchOffsets([]byte(c.doc))
				if err != nil {
					t.Fatalf("[%v] run: %v", kind, err)
				}
				auto := MustCompile(c.query)
				autoOffs, err := auto.MatchOffsets([]byte(c.doc))
				if err != nil {
					t.Fatalf("[auto] run: %v", err)
				}
				if fmt.Sprint(autoOffs) != fmt.Sprint(offs) {
					t.Fatalf("auto %v != forced %v offsets: %v vs %v (plan %v)",
						auto.Explain(DocStats{Bytes: len(c.doc)}), kind, autoOffs, offs,
						auto.Explain(DocStats{}))
				}
			}
		})
	}
}

// TestPlannerDifferentialRunReader repeats the differential over the
// streaming path (BufferedInput) with a small window, so every auto variant
// is exercised through RunReader's planned dispatch too.
func TestPlannerDifferentialRunReader(t *testing.T) {
	for _, c := range plannerCorpus() {
		t.Run(c.name, func(t *testing.T) {
			ref := MustCompile(c.query, WithEngine(EngineRsonpath))
			var want []int
			if err := ref.RunReader(strings.NewReader(c.doc), func(pos int) {
				want = append(want, pos)
			}); err != nil {
				t.Fatalf("[ref] run: %v", err)
			}
			for _, v := range autoVariants {
				q, err := Compile(c.query, append([]Option{WithStreamWindow(64)}, v.opts...)...)
				if err != nil {
					t.Fatalf("[%s] compile: %v", v.name, err)
				}
				var got []int
				if err := q.RunReader(strings.NewReader(c.doc), func(pos int) {
					got = append(got, pos)
				}); err != nil {
					t.Fatalf("[%s] stream run: %v", v.name, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("[%s] stream offsets %v, want %v (plan %v)",
						v.name, got, want, q.Explain(DocStats{Streaming: true}))
				}
			}
		})
	}
}

// TestExplainStable pins the Explain contract: deterministic output, the
// documented strategy/rule vocabulary, and the exact rendering the CLI's
// -explain flag prints.
func TestExplainStable(t *testing.T) {
	cases := []struct {
		query string
		opts  []Option
		stats DocStats
		want  string // Plan.String() — stable across runs and releases
	}{
		{"$..user.name", nil, DocStats{},
			"strategy=head-skip engine=rsonpath rule=head-skip: leading descendant label: skip straight to each occurrence of the sought label"},
		{"$.a.b[*]", nil, DocStats{},
			"strategy=skip engine=rsonpath rule=child-skipping: child/wildcard-only query: ski-style subtree and sibling fast-forwarding"},
		{"$.a..b.*", nil, DocStats{},
			"strategy=standard engine=rsonpath rule=depth-stack: general query: depth-stack simulation with the full skipping repertoire"},
		{"$..a..b", nil, DocStats{DenseMatches: true},
			"strategy=stackless engine=stackless rule=stackless-dense: sought labels are dense, so head-skip gains nothing; the allocation-free depth-register automaton is faster"},
		{"$..a..b", []Option{WithOptimizations(Optimizations{NoHeadSkip: true})}, DocStats{},
			"strategy=stackless engine=stackless rule=stackless-registers: head-skip disabled; the depth-register automaton beats the depth-stack simulation on descendant-only chains"},
		{"$..a", nil, DocStats{Indexed: true},
			"strategy=indexed engine=rsonpath rule=indexed-available: classification served from the prebuilt document mask index"},
		{"$.a.b", nil, DocStats{ExpectedRuns: 8},
			"strategy=indexed engine=rsonpath rule=index-amortizes: 8 expected runs over the same document repay the one-time index build (break-even ~8)"},
		{"$..a", nil, DocStats{ExpectedRuns: 100},
			"strategy=head-skip engine=rsonpath rule=head-skip: leading descendant label: skip straight to each occurrence of the sought label"},
		{"$..a", []Option{WithEngine(EngineSurfer)}, DocStats{},
			"strategy=surfer engine=surfer rule=forced-engine: engine forced by WithEngine"},
		{"$..a", []Option{WithEngine(EngineRsonpath)}, DocStats{DenseMatches: true},
			"strategy=head-skip engine=rsonpath rule=forced-engine: engine forced by WithEngine"},
	}
	for _, c := range cases {
		q := MustCompile(c.query, c.opts...)
		first := q.Explain(c.stats)
		if first.String() != c.want {
			t.Errorf("Explain(%s, %+v) =\n  %s\nwant\n  %s", c.query, c.stats, first, c.want)
		}
		for i := 0; i < 5; i++ {
			if again := q.Explain(c.stats); again != first {
				t.Fatalf("Explain unstable for %s: %+v then %+v", c.query, first, again)
			}
		}
	}
}

// TestExplainWatchdog: WithTimeout makes the plane-backed path unavailable
// and Explain says so.
func TestExplainWatchdog(t *testing.T) {
	q := MustCompile("$..a", WithTimeout(1e9))
	p := q.Explain(DocStats{Indexed: true})
	if p.Strategy != "head-skip" || p.Rule != "watchdog-streams" {
		t.Fatalf("watchdog plan = %+v", p)
	}
}

// TestStacklessAutoDispatch proves the alternate runner actually executes:
// a descendant-only chain compiled with head-skip disabled plans stackless
// and still matches the forced engines bytewise.
func TestStacklessAutoDispatch(t *testing.T) {
	doc := []byte(`{"a": {"x": {"b": 1}, "b": {"b": 2}}, "c": {"a": {"b": 3}}}`)
	auto := MustCompile("$..a..b", WithOptimizations(Optimizations{NoHeadSkip: true}))
	if p := auto.Explain(DocStats{Bytes: len(doc)}); p.Engine != EngineStackless {
		t.Fatalf("plan = %+v, want stackless", p)
	}
	got, err := auto.MatchOffsets(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []EngineKind{EngineStackless, EngineRsonpath, EngineDOM} {
		want, err := MustCompile("$..a..b", WithEngine(kind)).MatchOffsets(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("auto %v != %v %v", got, kind, want)
		}
	}
}

// surfaceRunner records which engine surface a run entered: the in-memory
// scan, the buffered stream, or the planes of an index.
type surfaceRunner struct {
	inner *engine.Engine
	last  string
}

func (r *surfaceRunner) Run(data []byte, emit func(pos int)) error {
	r.last = "scan"
	return r.inner.Run(data, emit)
}

func (r *surfaceRunner) RunInput(in input.Input, emit func(pos int)) error {
	r.last = "stream"
	return r.inner.RunInput(in, emit)
}

func (r *surfaceRunner) RunPlanes(in input.Input, planes *classifier.Planes, emit func(pos int)) error {
	r.last = "planes"
	return r.inner.RunPlanes(in, planes, emit)
}

// TestRunFollowsExplain: every run method executes the plan Explain
// reports for the same document stats — the engine it names (Outcome.Engine
// of the supervised methods) and, for the accelerated engine, the surface
// the plan implies: the planes for "indexed", the stream for a reader, the
// in-place scan otherwise. The matches agree across all of them.
func TestRunFollowsExplain(t *testing.T) {
	doc := []byte(`{"a": 1, "n": {"a": 2, "b": {"a": 3}}}`)
	want := []int{6, 20, 34}
	idx, err := Index(doc)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		opts []Option
	}{
		{"auto", nil},
		{"auto-noheadskip", []Option{WithOptimizations(Optimizations{NoHeadSkip: true})}},
		{"forced", []Option{WithEngine(EngineRsonpath)}},
		{"watchdog", []Option{WithTimeout(time.Minute)}},
	}
	for _, v := range variants {
		q := MustCompile("$..a", v.opts...)
		sr := &surfaceRunner{inner: q.run.(*engine.Engine)}
		q.run = sr
		type call struct {
			name    string
			stats   DocStats
			surface string // the accelerated engine's surface; "" for other engines
			run     func(emit func(pos int)) (Outcome, error)
		}
		calls := []call{
			{"RunSupervised", DocStats{Bytes: len(doc)}, "scan", func(emit func(int)) (Outcome, error) {
				return q.RunSupervised(context.Background(), doc, emit)
			}},
			{"RunIndexedSupervised", DocStats{Bytes: len(doc), Indexed: true}, "", func(emit func(int)) (Outcome, error) {
				return q.RunIndexedSupervised(context.Background(), idx, emit)
			}},
			{"RunReaderSupervised", DocStats{Streaming: true}, "stream", func(emit func(int)) (Outcome, error) {
				return q.RunReaderSupervised(context.Background(),
					func() (io.Reader, error) { return bytes.NewReader(doc), nil }, emit)
			}},
		}
		for _, c := range calls {
			plan := q.Explain(c.stats)
			sr.last = ""
			var got []int
			oc, err := c.run(func(pos int) { got = append(got, pos) })
			if err != nil {
				t.Fatalf("[%s] %s: %v", v.name, c.name, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("[%s] %s offsets %v, want %v", v.name, c.name, got, want)
			}
			if oc.Engine != plan.Engine.String() {
				t.Fatalf("[%s] %s ran engine %q, Explain says %v", v.name, c.name, oc.Engine, plan)
			}
			wantSurface := c.surface
			if plan.Strategy == "indexed" {
				wantSurface = "planes"
			} else if wantSurface == "" {
				wantSurface = "scan"
			}
			if plan.Engine != EngineRsonpath {
				wantSurface = "" // the stackless alternate ran, not q.run
			}
			if sr.last != wantSurface {
				t.Fatalf("[%s] %s entered %q, Explain's plan %v implies %q", v.name, c.name, sr.last, plan, wantSurface)
			}
		}
	}

	// A repeat workload on a child query earns the indexed *advice*: build
	// the index, serve from it, same answer as the scan. Head-skip queries
	// like $..a never get the advice — memmem cannot be served from planes.
	qc := MustCompile("$.n.a")
	if p := qc.Explain(DocStats{Bytes: len(doc), ExpectedRuns: 64}); p.Strategy != "indexed" || p.Rule != "index-amortizes" {
		t.Fatalf("plan = %+v, want indexed advice", p)
	}
	cold, err := qc.MatchOffsets(doc)
	if err != nil {
		t.Fatal(err)
	}
	var warm []int
	if err := qc.RunIndexed(idx, func(pos int) { warm = append(warm, pos) }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(warm) != fmt.Sprint(cold) || fmt.Sprint(cold) != "[20]" {
		t.Fatalf("indexed offsets %v, scan %v, want [20]", warm, cold)
	}
}

// TestQueryCachePlannerKey is the collision regression: the same query text
// under different planner constraints must compile (and cache) as distinct
// artifacts — a cached plan must not leak across option sets.
func TestQueryCachePlannerKey(t *testing.T) {
	cache := NewQueryCache(16)
	auto, err := cache.Get("$..a")
	if err != nil {
		t.Fatal(err)
	}
	noHead, err := cache.Get("$..a", WithOptimizations(Optimizations{NoHeadSkip: true}))
	if err != nil {
		t.Fatal(err)
	}
	forced, err := cache.Get("$..a", WithEngine(EngineRsonpath))
	if err != nil {
		t.Fatal(err)
	}
	if auto == noHead || auto == forced || noHead == forced {
		t.Fatal("planner configurations collided in the cache")
	}
	if n := cache.Len(); n != 3 {
		t.Fatalf("cache holds %d entries, want 3", n)
	}
	// Same config twice is still one entry (the key is canonical).
	again, err := cache.Get("$..a", WithEngine(EngineRsonpath))
	if err != nil {
		t.Fatal(err)
	}
	if again != forced {
		t.Fatal("identical options missed the cache")
	}
	// The cached artifacts really do plan differently: the same engine kind,
	// forced or not, is a different planner constraint.
	dense := DocStats{DenseMatches: true}
	if auto.Explain(dense).Rule == forced.Explain(dense).Rule {
		t.Fatal("auto and forced artifacts plan identically")
	}
}

// TestQuerySetExplain: the set's plan layer reports the shared pass's
// flavor and upgrades to the planes like a single query.
func TestQuerySetExplain(t *testing.T) {
	set := MustCompileSet([]string{"$..a", "$..b"})
	if p := set.Explain(DocStats{}); p.Strategy != "head-skip" || p.Engine != EngineRsonpath {
		t.Fatalf("set plan = %+v", p)
	}
	if p := set.Explain(DocStats{Indexed: true}); p.Strategy != "indexed" {
		t.Fatalf("set plan with index = %+v", p)
	}
	mixed := MustCompileSet([]string{"$..a", "$.b[*]"})
	if p := mixed.Explain(DocStats{}); p.Strategy != "standard" {
		t.Fatalf("mixed set plan = %+v", p)
	}
	// WithEngine forces the set's driver as the same planner constraint as
	// a Query's, still upgraded to the planes of an index in hand.
	forced := MustCompileSet([]string{"$..a", "$..b"}, WithEngine(EngineRsonpath))
	if p := forced.Explain(DocStats{}); p.Strategy != "head-skip" || p.Rule != "forced-engine" {
		t.Fatalf("forced set plan = %+v", p)
	}
	if p := forced.Explain(DocStats{Indexed: true}); p.Strategy != "indexed" {
		t.Fatalf("forced set plan with index = %+v", p)
	}
}

// TestPipelineValuesSingleExtraction: MatchValues must agree with ValueAt
// over MatchOffsets — values are extracted during the final stage now, and
// the two views must stay identical, aliasing included.
func TestPipelineValuesSingleExtraction(t *testing.T) {
	doc := []byte(`{"a": [{"b": {"c": 1}}, {"b": [2, {"c": 3}]}], "b": {"c": 0}}`)
	p := NewPipeline(MustCompile("$.a..b"), MustCompile("$..c"))
	offs, err := p.MatchOffsets(doc)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := p.MatchValues(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(offs) || len(vals) == 0 {
		t.Fatalf("got %d values for %d offsets", len(vals), len(offs))
	}
	for i, o := range offs {
		want, err := ValueAt(doc, o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vals[i], want) {
			t.Fatalf("value %d = %q, want %q", i, vals[i], want)
		}
		if &vals[i][0] != &doc[o] {
			t.Fatalf("value %d does not alias the document", i)
		}
	}
}
