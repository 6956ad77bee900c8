package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"rsonpath"
	"rsonpath/internal/automaton"
	"rsonpath/internal/classifier"
	"rsonpath/internal/engine"
	"rsonpath/internal/input"
	"rsonpath/internal/jsonpath"
	"rsonpath/internal/multiquery"
	"rsonpath/internal/server"
	"rsonpath/internal/simd"
)

// The traced run times calls into each module's public functions, from
// this benchmark's own files: spans inside the program are left to a later
// change. Every decomposition call that yields matches is checked against
// the same oracle counts as the end-to-end operation.

// strategies are the planner strategies whose counts are reported; the
// baselines (ski, surfer, dom) are reachable only when forced.
var strategies = []string{"standard", "skip", "head-skip", "indexed", "stackless"}

// parseReps is how many times each distinct query is parsed and compiled
// for jsonpath.parse_us and automaton.compile_us: one call takes a few
// microseconds, too short for a single timing.
const parseReps = 50

// docProbe holds what the decomposition calls need for one document, all
// built before any timing.
type docProbe struct {
	d       *doc
	queries []*rsonpath.Query
	engines []*engine.Engine
	heads   [][]byte // head-skip label per query, nil when the query has none
	set     *rsonpath.QuerySet
	mq      *multiquery.Set
	masks   [6][]uint64
	// handler requests replaying this document's operations in memory: one
	// envelope request for the whole set (multi) or one raw count request
	// per query.
	handler []*request
}

func newDocProbe(d *doc, multi bool) (*docProbe, error) {
	p := &docProbe{d: d}
	var dfas []*automaton.DFA
	for _, src := range d.queries {
		q, err := rsonpath.Compile(src)
		if err != nil {
			return nil, err
		}
		parsed, err := jsonpath.Parse(src)
		if err != nil {
			return nil, err
		}
		dfa, err := automaton.Compile(parsed, automaton.Options{})
		if err != nil {
			return nil, err
		}
		var head []byte
		if init := &dfa.States[dfa.Initial]; init.Waiting {
			head = init.Labels[0].Label
		}
		p.queries = append(p.queries, q)
		p.engines = append(p.engines, engine.New(dfa, engine.Options{}))
		p.heads = append(p.heads, head)
		dfas = append(dfas, dfa)
	}
	set, err := rsonpath.CompileSet(d.queries)
	if err != nil {
		return nil, err
	}
	p.set, p.mq = set, multiquery.New(dfas)
	words := (len(d.data) + simd.BlockSize - 1) / simd.BlockSize
	for i := range p.masks {
		p.masks[i] = make([]uint64, words)
	}
	// Fault the mask pages in now, so the timed call does not pay for it.
	m := &p.masks
	simd.BatchRawMasks(d.data, m[0], m[1], m[2], m[3], m[4], m[5])
	if multi {
		p.handler = []*request{newRequest("multi", d, allQueries(d), "count", false)}
	} else {
		for i := range d.queries {
			p.handler = append(p.handler, newRequest("single", d, []int{i}, "count", true))
		}
	}
	return p, nil
}

func allQueries(d *doc) []int {
	qi := make([]int, len(d.queries))
	for i := range qi {
		qi[i] = i
	}
	return qi
}

// countingReader counts Read calls, the input layer's refills.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// layerStats accumulates what spans alone do not carry.
type layerStats struct {
	reads, readBytes   int
	footprint, indexed int
	states             int
	plans              map[string]int
	// overhead is the traced end-to-end time over the untraced one.
	overhead float64
	// hotShare is the share of the daemon's time spent on hot documents
	// (serve only).
	hotShare float64
}

// probe runs the decomposition calls for one document under parent span
// root. countDone and readerDone say that the workload's own operation
// already timed Query.Count or QuerySet.RunReader, which are then not
// repeated.
func (p *docProbe) probe(tr *tracer, root, op int, t *tally, ls *layerStats, h http.Handler, countDone, readerDone bool) {
	data, n := p.d.data, len(p.d.data)
	// BatchRawMasks covers whole blocks only; the span counts those bytes.
	id, m := tr.begin("simd.BatchRawMasks", root, op), &p.masks
	full := simd.BatchRawMasks(data, m[0], m[1], m[2], m[3], m[4], m[5])
	tr.end(id, full*simd.BlockSize)

	var planes *classifier.Planes
	tr.record("classifier.BuildPlanes", root, op, n, func() { planes = classifier.BuildPlanes(data) })
	var idx *rsonpath.IndexedDocument
	var err error
	tr.record("rsonpath.Index", root, op, n, func() { idx, err = rsonpath.Index(data) })
	if t.note(err) != nil {
		return
	}
	ls.footprint += idx.Footprint()
	ls.indexed += idx.Len()

	counts := make([]int, len(p.queries))
	if !readerDone {
		cr := &countingReader{r: bytes.NewReader(data)}
		tr.record("rsonpath.QuerySet.RunReader", root, op, n, func() {
			err = p.set.RunReader(cr, func(q, _ int) { counts[q]++ })
		})
		t.note(checkCounts(p.d.name+" RunReader", p.d.queries, counts, p.d.want, err))
		ls.reads += cr.reads
		ls.readBytes += n
	}
	clear(counts)
	tr.record("rsonpath.QuerySet.Run", root, op, n, func() {
		err = p.set.Run(data, func(q, _ int) { counts[q]++ })
	})
	t.note(checkCounts(p.d.name+" QuerySet.Run", p.d.queries, counts, p.d.want, err))
	clear(counts)
	tr.record("multiquery.Set.Run", root, op, n, func() {
		err = p.mq.Run(data, func(q, _ int) { counts[q]++ })
	})
	t.note(checkCounts(p.d.name+" multiquery.Set.Run", p.d.queries, counts, p.d.want, err))

	for i, src := range p.d.queries {
		want, what := p.d.want[i], p.d.name+" "+src
		var c int
		if !countDone {
			tr.record("rsonpath.Query.Count", root, op, n, func() { c, err = p.queries[i].Count(data) })
			t.note(checkCount(what+" Query.Count", c, want, err))
		}
		tr.record("engine.Engine.Count", root, op, n, func() { c, err = p.engines[i].Count(data) })
		t.note(checkCount(what+" engine.Count", c, want, err))
		c = 0
		tr.record("engine.Engine.RunPlanes", root, op, n, func() {
			err = p.engines[i].RunPlanes(input.NewBytes(data), planes, func(int) { c++ })
		})
		t.note(checkCount(what+" engine.RunPlanes", c, want, err))
		tr.record("rsonpath.Query.CountIndexed", root, op, n, func() { c, err = p.queries[i].CountIndexed(idx) })
		t.note(checkCount(what+" CountIndexed", c, want, err))
		if head := p.heads[i]; head != nil {
			tr.record("classifier.SeekLabel", root, op, n, func() {
				s := classifier.NewStream(data)
				for from := 0; ; {
					_, valueAt, ok := classifier.SeekLabel(s, from, head)
					if !ok {
						break
					}
					from = valueAt
				}
			})
		}
	}
	for _, r := range p.handler {
		rec := httptest.NewRecorder()
		req := r.inMemory()
		tr.record("server.Handler.ServeHTTP", root, op, n, func() { h.ServeHTTP(rec, req) })
		t.note(r.check(rec.Code, rec.Body.Bytes()))
	}
}

// parseCompile times jsonpath.Parse and automaton.Compile of each distinct
// query and sums the automata's state counts.
func parseCompile(tr *tracer, docs []*doc, ls *layerStats, t *tally) {
	seen := map[string]bool{}
	op := 0
	for _, d := range docs {
		for _, src := range d.queries {
			if seen[src] {
				continue
			}
			seen[src] = true
			op--
			var parsed *jsonpath.Query
			var dfa *automaton.DFA
			var err error
			for r := 0; r < parseReps && err == nil; r++ {
				tr.record("jsonpath.Parse", 0, op, 0, func() { parsed, err = jsonpath.Parse(src) })
				if err == nil {
					tr.record("automaton.Compile", 0, op, 0, func() { dfa, err = automaton.Compile(parsed, automaton.Options{}) })
				}
			}
			if t.note(err) == nil {
				ls.states += len(dfa.States)
			}
		}
	}
}

// newProbeServer is an in-memory rsonpathd with the daemon's defaults.
func newProbeServer() *server.Server { return server.New(daemonConfig("")) }

// layerMetrics turns the spans and counts of a traced run into the
// per-layer metrics; the daemon counter deltas srv and the generator's
// lateness come from the workload.
func layerMetrics(tr *tracer, ls *layerStats, srv map[string]float64, lateP99 float64) map[string]metric {
	spans := tr.snapshot()
	lt := layerTotals(spans)
	total := func(name string) time.Duration {
		if l := lt[name]; l != nil {
			return l.Total
		}
		return 0
	}
	rate := func(name string) float64 {
		l := lt[name]
		if l == nil || l.Total == 0 {
			return 0
		}
		return gbps(l.Bytes, l.Total)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	medianUS := func(name string) float64 {
		if l := lt[name]; l != nil {
			return median(l.Durations) * 1e6
		}
		return 0
	}
	engineCount := total("engine.Engine.Count").Seconds()
	apiTotal := total("rsonpath.Query.Count").Seconds()
	readerTotal := total("rsonpath.QuerySet.RunReader").Seconds()
	handlerP50 := 0.0
	if l := lt["server.Handler.ServeHTTP"]; l != nil {
		handlerP50 = median(l.Durations) * 1e3
	}
	opSelf, opTotal := 0.0, 0.0
	if l := lt["op"]; l != nil {
		opSelf, opTotal = l.Self.Seconds(), l.Total.Seconds()
	}
	m := map[string]metric{
		"simd.batch_gbps":                {rate("simd.BatchRawMasks"), "GB/s"},
		"classifier.planes_gbps":         {rate("classifier.BuildPlanes"), "GB/s"},
		"classifier.classify_share":      {1 - ratio(total("engine.Engine.RunPlanes").Seconds(), engineCount), "ratio"},
		"classifier.seek_gbps":           {rate("classifier.SeekLabel"), "GB/s"},
		"engine.run_gbps":                {rate("engine.Engine.Count"), "GB/s"},
		"engine.walk_gbps":               {rate("engine.Engine.RunPlanes"), "GB/s"},
		"rsonpath.api_share":             {ratio(apiTotal-engineCount, apiTotal), "ratio"},
		"jsonpath.parse_us":              {medianUS("jsonpath.Parse"), "us"},
		"automaton.compile_us":           {medianUS("automaton.Compile"), "us"},
		"automaton.states":               {float64(ls.states), "count"},
		"input.reads_per_mb":             {ratio(float64(ls.reads), float64(ls.readBytes)/1e6), "1/MB"},
		"input.reader_share":             {ratio(readerTotal-total("rsonpath.QuerySet.Run").Seconds(), readerTotal), "ratio"},
		"multiquery.pass_gbps":           {rate("multiquery.Set.Run"), "GB/s"},
		"multiquery.shared_ratio":        {ratio(total("multiquery.Set.Run").Seconds(), engineCount), "ratio"},
		"rsonpath.index_gbps":            {rate("rsonpath.Index"), "GB/s"},
		"rsonpath.indexed_gbps":          {rate("rsonpath.Query.CountIndexed"), "GB/s"},
		"rsonpath.index_footprint_ratio": {ratio(float64(ls.footprint), float64(ls.indexed)), "ratio"},
		"server.handler_p50_ms":          {handlerP50, "ms"},
		"server.doc_cache_hit_ratio":     {ratio(srv["rsonpathd_doc_cache_hits_total"], srv["rsonpathd_requests_total"]), "ratio"},
		"server.query_cache_hit_ratio": {ratio(srv["rsonpathd_query_cache_hits_total"],
			srv["rsonpathd_query_cache_hits_total"]+srv["rsonpathd_query_cache_misses_total"]), "ratio"},
		"server.shed_ratio":     {ratio(srv["rsonpathd_errors_overload_total"], srv["rsonpathd_requests_total"]), "ratio"},
		"driver.late_p99_ms":    {lateP99, "ms"},
		"server.hot_time_share": {ls.hotShare, "ratio"},
		"trace.overhead_ratio":  {ls.overhead, "ratio"},
		"trace.op_self_share":   {ratio(opSelf, opTotal), "ratio"},
	}
	for _, s := range strategies {
		m["planner.plan."+s] = metric{float64(ls.plans[s]), "count"}
		m["server.plan."+s] = metric{srv["rsonpathd_plan_"+strings.ReplaceAll(s, "-", "_")+"_total"], "count"}
	}
	return m
}

// runLibraryTraced alternates an untraced pass with a traced one while
// another such pair fits before the deadline (at least one pair). In a
// traced pass each document's operations run inside spans, followed by
// the decomposition calls.
func runLibraryTraced(ops []*libOp, docs []*doc, multi bool, seconds int, t *tally, tr *tracer) (map[string]metric, error) {
	probes := make([]*docProbe, len(docs))
	for i, d := range docs {
		p, err := newDocProbe(d, multi)
		if err != nil {
			return nil, err
		}
		probes[i] = p
	}
	ls := &layerStats{plans: map[string]int{}}
	for _, o := range ops {
		if multi {
			ls.plans[o.set.Explain(rsonpath.DocStats{Bytes: o.bytes(), Streaming: true}).Strategy]++
		} else {
			ls.plans[o.q.Explain(rsonpath.DocStats{Bytes: o.bytes()}).Strategy]++
		}
	}
	parseCompile(tr, docs, ls, t)
	srv := newProbeServer()
	before, err := scrapeMetrics(srv.Handler())
	if err != nil {
		return nil, err
	}

	budget := time.Duration(seconds) * time.Second
	runtime.GC() // as in runLibrary
	start := time.Now()
	op := 0
	var traced, untraced, pair time.Duration
	for first := true; first || time.Since(start)+pair <= budget; first = false {
		pairStart := time.Now()
		untraced += timedPass(ops, t).wall
		for i, pr := range probes {
			op++
			root := tr.begin("op", 0, op)
			for _, o := range ops {
				if o.doc != docs[i] {
					continue
				}
				var err error
				if multi {
					cr := &countingReader{r: bytes.NewReader(o.doc.data)}
					clear(o.counts)
					traced += tr.record("rsonpath.QuerySet.RunReader", root, op, o.bytes(), func() {
						err = o.set.RunReader(cr, func(q, _ int) { o.counts[q]++ })
					})
					t.attempt(checkCounts(o.name, o.doc.queries, o.counts, o.doc.want, err))
					ls.reads += cr.reads
					ls.readBytes += o.bytes()
				} else {
					var n int
					traced += tr.record("rsonpath.Query.Count", root, op, o.bytes(), func() { n, err = o.q.Count(o.doc.data) })
					t.attempt(checkCount(o.name, n, o.doc.want[o.qi], err))
				}
			}
			pr.probe(tr, root, op, t, ls, srv.Handler(), !multi, multi)
			tr.end(root, 0)
		}
		pair = time.Since(pairStart)
	}
	after, err := scrapeMetrics(srv.Handler())
	if err != nil {
		return nil, err
	}
	ls.overhead = traced.Seconds() / untraced.Seconds()
	// The library workloads have no send schedule, so their generator is
	// never late.
	return layerMetrics(tr, ls, metricsDelta(before, after), 0), nil
}

// serveLayers computes the serve workload's per-layer metrics: the loopback
// daemon's counter deltas (srv), the generator's lateness, an in-memory
// replay of the open-loop mix through server.Handler on fresh daemons,
// and the library decomposition over the hot documents and a few cold
// ones.
func serveLayers(in *serveInputs, open phaseResult, srv map[string]float64, t *tally, tr *tracer) (map[string]metric, error) {
	ls := &layerStats{plans: map[string]int{}}
	lates := make([]float64, len(open.outcomes))
	for i, o := range open.outcomes {
		lates[i] = ms(o.late)
	}
	lateP99, _ := percentile(lates, 0.99)

	// The plan a library caller would get for each request of the mix.
	queries := map[string]*rsonpath.Query{}
	sets := map[string]*rsonpath.QuerySet{}
	for _, r := range append(append([]*request(nil), in.open...), in.closed...) {
		stats := rsonpath.DocStats{Bytes: len(r.d.data)}
		if len(r.qi) == 1 {
			src := r.d.queries[r.qi[0]]
			if queries[src] == nil {
				q, err := rsonpath.Compile(src)
				if err != nil {
					return nil, err
				}
				queries[src] = q
			}
			ls.plans[queries[src].Explain(stats).Strategy]++
			continue
		}
		key := strings.Join(r.d.queries, "\n")
		if sets[key] == nil {
			s, err := rsonpath.CompileSet(r.d.queries)
			if err != nil {
				return nil, err
			}
			sets[key] = s
		}
		ls.plans[sets[key].Explain(stats).Strategy]++
	}

	// The open-loop mix is replayed in memory through two fresh daemons,
	// one traced and one not, taking turns to go first: the live run has
	// no spans inside the daemon, so the tracing overhead is the ratio of
	// the two replays' handler times. The traced replay also splits the
	// daemon's time between hot and cold documents.
	traced, untraced := newProbeServer().Handler(), newProbeServer().Handler()
	var tracedTime, untracedTime, hotTime time.Duration
	for i, r := range in.open {
		for k := 0; k < 2; k++ {
			rec, req := httptest.NewRecorder(), r.inMemory()
			if (i+k)%2 == 0 {
				d := tr.record("server.Handler.ServeHTTP", 0, 2_000_000+i, len(r.d.data), func() { traced.ServeHTTP(rec, req) })
				tracedTime += d
				if r.hot() {
					hotTime += d
				}
			} else {
				s := time.Now()
				untraced.ServeHTTP(rec, req)
				untracedTime += time.Since(s)
			}
			t.note(r.check(rec.Code, rec.Body.Bytes()))
		}
	}
	ls.overhead = tracedTime.Seconds() / untracedTime.Seconds()
	ls.hotShare = hotTime.Seconds() / tracedTime.Seconds()

	docs := append(append([]*doc(nil), in.hot...), in.cold[:min(serveProbeCold, len(in.cold))]...)
	parseCompile(tr, docs, ls, t)
	for i, d := range docs {
		p, err := newDocProbe(d, false)
		if err != nil {
			return nil, err
		}
		p.handler = nil // the replay above already timed the handler
		op := 3_000_000 + i
		root := tr.begin("op", 0, op)
		p.probe(tr, root, op, t, ls, nil, false, false)
		tr.end(root, 0)
	}
	return layerMetrics(tr, ls, srv, lateP99), nil
}
