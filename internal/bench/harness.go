package bench

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rsonpath"
	"rsonpath/internal/jsongen"
)

// Harness generates datasets on demand, caches them, and measures query
// throughput following the paper's methodology (§5.1): warm-up iterations
// to fill caches, then timed samples whose mean yields the reported
// throughput.
type Harness struct {
	// SizeFactor scales every dataset's default size (1.0 = DESIGN.md's
	// defaults, which are ~1/64 of the paper's). Benchmarks in tests use a
	// smaller factor.
	SizeFactor float64
	// Samples is the number of timed runs per measurement.
	Samples int
	// Warmup is the number of untimed runs before measuring.
	Warmup int
	// Seed feeds the dataset generators.
	Seed int64

	mu    sync.Mutex
	cache map[string][]byte
}

// NewHarness returns a harness with the paper-shaped defaults.
func NewHarness() *Harness {
	return &Harness{SizeFactor: 1.0, Samples: 5, Warmup: 1, Seed: 42}
}

// Dataset returns the named dataset at the harness scale, cached.
func (h *Harness) Dataset(name string) ([]byte, error) {
	return h.DatasetScaled(name, 1.0)
}

// DatasetScaled returns the named dataset scaled by an extra factor on top
// of the harness factor (Experiment D uses this).
func (h *Harness) DatasetScaled(name string, extra float64) ([]byte, error) {
	p, ok := jsongen.ByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown dataset %q", name)
	}
	target := int(float64(p.DefaultSize) * h.SizeFactor * extra)
	key := fmt.Sprintf("%s@%d", name, target)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cache == nil {
		h.cache = make(map[string][]byte)
	}
	if d, ok := h.cache[key]; ok {
		return d, nil
	}
	d, err := jsongen.Generate(name, target, h.Seed)
	if err != nil {
		return nil, err
	}
	h.cache[key] = d
	return d, nil
}

// Result is one measurement.
type Result struct {
	ID      string
	Dataset string
	Query   string
	Engine  string
	Bytes   int
	Matches int
	Mean    time.Duration
	StdDev  time.Duration
	// GBps is mean throughput in gigabytes (1e9) per second, the unit of
	// the paper's figures.
	GBps float64
	// Unsupported marks engine/query combinations outside the engine's
	// fragment (JSONSki with descendants), rendered as missing bars.
	Unsupported bool
}

// ErrUnsupported marks engine/query pairs outside the engine's fragment.
var ErrUnsupported = errors.New("bench: unsupported engine/query combination")

// MeasureFunc times f (which returns a match count) per the harness
// configuration.
func (h *Harness) MeasureFunc(bytes int, f func() (int, error)) (Result, error) {
	var res Result
	res.Bytes = bytes
	for i := 0; i < h.Warmup; i++ {
		if _, err := f(); err != nil {
			return res, err
		}
	}
	samples := make([]float64, h.Samples)
	for i := range samples {
		start := time.Now()
		n, err := f()
		samples[i] = time.Since(start).Seconds()
		if err != nil {
			return res, err
		}
		res.Matches = n
	}
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	variance := 0.0
	for _, s := range samples {
		variance += (s - mean) * (s - mean)
	}
	if len(samples) > 1 {
		variance /= float64(len(samples) - 1)
	}
	res.Mean = time.Duration(mean * float64(time.Second))
	res.StdDev = time.Duration(math.Sqrt(variance) * float64(time.Second))
	if mean > 0 {
		res.GBps = float64(bytes) / mean / 1e9
	}
	return res, nil
}

// RunSpec measures one query on one engine.
func (h *Harness) RunSpec(spec Spec, kind rsonpath.EngineKind) (Result, error) {
	data, err := h.Dataset(spec.Dataset)
	if err != nil {
		return Result{}, err
	}
	q, err := rsonpath.Compile(spec.Query, rsonpath.WithEngine(kind))
	if errors.Is(err, rsonpath.ErrUnsupportedQuery) {
		return Result{ID: spec.ID, Dataset: spec.Dataset, Query: spec.Query,
			Engine: kind.String(), Unsupported: true}, nil
	}
	if err != nil {
		return Result{}, err
	}
	res, err := h.MeasureFunc(len(data), func() (int, error) { return q.Count(data) })
	if err != nil {
		return Result{}, err
	}
	res.ID, res.Dataset, res.Query, res.Engine = spec.ID, spec.Dataset, spec.Query, kind.String()
	return res, nil
}

// RunSpecOptimized measures the accelerated engine with specific
// optimization toggles (the ablation experiment).
func (h *Harness) RunSpecOptimized(spec Spec, opt rsonpath.Optimizations, label string) (Result, error) {
	data, err := h.Dataset(spec.Dataset)
	if err != nil {
		return Result{}, err
	}
	// Engine forced: the ablation measures the configured toggles, and the
	// planner would otherwise reroute NoHeadSkip chains to stackless.
	q, err := rsonpath.Compile(spec.Query,
		rsonpath.WithOptimizations(opt), rsonpath.WithEngine(rsonpath.EngineRsonpath))
	if err != nil {
		return Result{}, err
	}
	res, err := h.MeasureFunc(len(data), func() (int, error) { return q.Count(data) })
	if err != nil {
		return Result{}, err
	}
	res.ID, res.Dataset, res.Query, res.Engine = spec.ID, spec.Dataset, spec.Query, label
	return res, nil
}

// Engines used across the comparative experiments.
var Engines = []rsonpath.EngineKind{
	rsonpath.EngineRsonpath,
	rsonpath.EngineSki,
	rsonpath.EngineSurfer,
}

// RunGrid measures the given specs on all engines (Appendix C's grid).
func (h *Harness) RunGrid(specs []Spec) ([]Result, error) {
	var out []Result
	for _, spec := range specs {
		for _, kind := range Engines {
			r, err := h.RunSpec(spec, kind)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", spec.ID, kind, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// ScalabilityPoint is one Experiment D measurement.
type ScalabilityPoint struct {
	SizeBytes int
	GBps      float64
	Matches   int
}

// RunScalability reproduces Experiment D (Table 7): the query
// $..affiliation..name over Crossref fragments of increasing size.
func (h *Harness) RunScalability(factors []float64) ([]ScalabilityPoint, error) {
	q, err := rsonpath.Compile("$..affiliation..name")
	if err != nil {
		return nil, err
	}
	var out []ScalabilityPoint
	for _, f := range factors {
		data, err := h.DatasetScaled("crossref", f)
		if err != nil {
			return nil, err
		}
		res, err := h.MeasureFunc(len(data), func() (int, error) { return q.Count(data) })
		if err != nil {
			return nil, err
		}
		out = append(out, ScalabilityPoint{SizeBytes: len(data), GBps: res.GBps, Matches: res.Matches})
	}
	return out, nil
}

// RunStackless compares the §3.2 simulation strategies — full engine,
// depth-stack-only (head-skip off), and depth-register stackless — on a
// descendant-only chain.
func (h *Harness) RunStackless() ([]Result, error) {
	spec := Spec{ID: "S2", Dataset: "crossref", Query: "$..affiliation..name"}
	data, err := h.Dataset(spec.Dataset)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		label string
		q     *rsonpath.Query
		err   error
	}{}
	add := func(label string, q *rsonpath.Query, err error) {
		variants = append(variants, struct {
			label string
			q     *rsonpath.Query
			err   error
		}{label, q, err})
	}
	// Engine forced on the first two variants: this experiment compares the
	// simulation strategies directly, and unforced the NoHeadSkip variant
	// would itself be rerouted to the depth-register automaton.
	q1, err1 := rsonpath.Compile(spec.Query, rsonpath.WithEngine(rsonpath.EngineRsonpath))
	add("engine", q1, err1)
	q2, err2 := rsonpath.Compile(spec.Query,
		rsonpath.WithOptimizations(rsonpath.Optimizations{NoHeadSkip: true}),
		rsonpath.WithEngine(rsonpath.EngineRsonpath))
	add("depth-stack-only", q2, err2)
	q3, err3 := rsonpath.Compile(spec.Query, rsonpath.WithEngine(rsonpath.EngineStackless))
	add("depth-registers", q3, err3)

	var out []Result
	for _, v := range variants {
		if v.err != nil {
			return nil, v.err
		}
		res, err := h.MeasureFunc(len(data), func() (int, error) { return v.q.Count(data) })
		if err != nil {
			return nil, err
		}
		res.ID, res.Dataset, res.Query, res.Engine = spec.ID, spec.Dataset, spec.Query, v.label
		out = append(out, res)
	}
	return out, nil
}

// Table3Row is one dataset-characteristics row.
type Table3Row struct {
	Name  string
	Stats jsongen.Stats
}

// RunTable3 measures the generated datasets' characteristics.
func (h *Harness) RunTable3() ([]Table3Row, error) {
	var out []Table3Row
	for _, p := range jsongen.Profiles() {
		data, err := h.Dataset(p.Name)
		if err != nil {
			return nil, err
		}
		st, err := jsongen.Measure(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		out = append(out, Table3Row{Name: p.Name, Stats: st})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// AblationVariants are the engine configurations of the ablation study.
var AblationVariants = []struct {
	Label string
	Opt   rsonpath.Optimizations
}{
	{"full", rsonpath.Optimizations{}},
	{"no-headskip", rsonpath.Optimizations{NoHeadSkip: true}},
	{"no-skip-children", rsonpath.Optimizations{NoSkipChildren: true}},
	{"no-skip-siblings", rsonpath.Optimizations{NoSkipSiblings: true}},
	{"no-skip-leaves", rsonpath.Optimizations{NoSkipLeaves: true}},
	{"no-skipping", rsonpath.Optimizations{
		NoHeadSkip: true, NoSkipChildren: true, NoSkipSiblings: true, NoSkipLeaves: true,
	}},
	{"+tail-skip", rsonpath.Optimizations{TailSkip: true}},
}

// RunAblation measures the accelerated engine's variants on the given
// specs.
func (h *Harness) RunAblation(specs []Spec) ([]Result, error) {
	var out []Result
	for _, spec := range specs {
		for _, v := range AblationVariants {
			r, err := h.RunSpecOptimized(spec, v.Opt, v.Label)
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", spec.ID, v.Label, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}
