package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"rsonpath/internal/bench"
	"rsonpath/internal/jsongen"
	"rsonpath/internal/server"
)

// The serve workload runs an in-process rsonpathd on loopback and drives
// it from this process over at most two connections (the host it was
// sized on has two vCPUs). A run has two phases: an open loop at a fixed
// rate, timed from each request's due time, then a closed loop.

const (
	// openRate is the open-loop arrival rate, sized at the commit that
	// introduced the benchmark on a 2-vCPU AVX2 host: about a tenth of the
	// closed-loop capacity there (1600-2800 req/s, depending on the load
	// its neighbours put on the host). At 450 and 600 req/s the latency
	// figures were dominated by queueing whenever the host slowed down:
	// the p90 spread over ten seeds reached 1.1 of its median.
	openRate = 200.0
	// openShare is the share of --seconds given to the open loop. The
	// closed loop gets the rest, about as long as closedRequests last.
	openShare = 0.8
	// closedRequests is the closed loop's length: about the rest of
	// --seconds at the closed-loop capacity above. The phase ends earlier
	// when the rest of --seconds runs out. Every cold request needs a
	// document of its own, generated and checked before timing starts, so
	// the phase is not made longer than the rest of the run.
	closedRequests = 16000
	// hotDocBytes and coldDocBytes are the jsongen target sizes of the
	// repeated and the never-repeated documents. The hot size is the
	// 64 KiB document of the repository's own serving experiment
	// (EXPERIMENTS.md, "Serving: rsonpathd hot caches"); the cold size and
	// the class weights in mix are assumptions, recorded in README.md.
	hotDocBytes  = 64 << 10
	coldDocBytes = 16 << 10
	// serveSetups is how many daemons a run starts and warms; setup_s is
	// the median of their set-up times.
	serveSetups = 15
	// serveProbeCold is how many cold documents the traced run decomposes
	// besides the hot ones.
	serveProbeCold = 6
)

// hotProfiles are the datasets of the repeated documents, one each.
var hotProfiles = []string{"bestbuy", "crossref", "twitter_small", "walmart"}

// mixClass is one kind of request in the mix, drawn with weight/100. The
// weights are an assumption, not taken from recorded traffic: 60% of
// requests go to the four hot documents, enough for the document cache to
// serve most of the load, and 40% to cold ones, so that cold
// classification stays on the path. The traced run reports the measured
// split of the daemon's time as server.hot_time_share.
type mixClass struct {
	name   string
	hot    bool
	multi  bool
	mode   string
	raw    bool
	weight int
}

var mix = []mixClass{
	{"hot-raw-count", true, false, "count", true, 30},
	{"hot-envelope-values", true, false, "values", false, 20},
	{"hot-envelope-multi", true, true, "count", false, 10},
	{"cold-raw-count", false, false, "count", true, 15},
	{"cold-envelope-values", false, false, "values", false, 15},
	{"cold-envelope-multi", false, true, "count", false, 10},
}

// daemonConfig is rsonpathd's configuration at its flag defaults, with
// the document cache on.
func daemonConfig(addr string) server.Config {
	return server.Config{
		Addr:            addr,
		QueryCacheSize:  256,
		DocCacheSize:    128,
		Timeout:         2 * time.Second,
		Brownout:        true,
		Breaker:         true,
		BodyReadTimeout: 30 * time.Second,
	}
}

// request is one prepared HTTP request with the oracle's answer.
type request struct {
	class string
	d     *doc
	qi    []int // queries of d this request runs
	mode  string
	path  string
	body  []byte
}

// newRequest builds a raw-body request (one query, the body is the
// document verbatim) or a JSON-envelope one. The envelope carries the
// document's bytes unchanged, so a document hashes the same in both forms
// and the document cache sees one document.
func newRequest(class string, d *doc, qi []int, mode string, raw bool) *request {
	r := &request{class: class, d: d, qi: qi, mode: mode, path: "/v1/query"}
	if raw {
		r.path += "?query=" + url.QueryEscape(d.queries[qi[0]]) + "&mode=" + mode
		r.body = d.data
		return r
	}
	var b bytes.Buffer
	if len(qi) == 1 {
		q, _ := json.Marshal(d.queries[qi[0]])
		b.WriteString(`{"query":` + string(q))
	} else {
		qs := make([]string, len(qi))
		for i, k := range qi {
			qs[i] = d.queries[k]
		}
		q, _ := json.Marshal(qs)
		b.WriteString(`{"queries":` + string(q))
	}
	b.WriteString(`,"mode":"` + mode + `","document":`)
	b.Write(d.data)
	b.WriteString("}")
	r.body = b.Bytes()
	return r
}

// hot reports whether the request's document repeats within the run.
func (r *request) hot() bool { return strings.HasPrefix(r.class, "hot-") }

func (r *request) inMemory() *http.Request {
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// check verifies a response against the oracle: status 200, and each
// query's count (and, in values mode, the number of values) as expected.
func (r *request) check(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.class, r.d.name, status, body)
	}
	var resp struct {
		Count   int               `json:"count"`
		Values  []json.RawMessage `json:"values"`
		Results []struct {
			Count int `json:"count"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s %s: %w", r.class, r.d.name, err)
	}
	if len(r.qi) > 1 {
		if len(resp.Results) != len(r.qi) {
			return fmt.Errorf("%s %s: %d results for %d queries", r.class, r.d.name, len(resp.Results), len(r.qi))
		}
		for k, i := range r.qi {
			if resp.Results[k].Count != r.d.want[i] {
				return fmt.Errorf("%s %s %s: count %d, oracle says %d", r.class, r.d.name, r.d.queries[i], resp.Results[k].Count, r.d.want[i])
			}
		}
		return nil
	}
	want := r.d.want[r.qi[0]]
	if resp.Count != want || (r.mode == "values" && len(resp.Values) != want) {
		return fmt.Errorf("%s %s %s: count %d (%d values), oracle says %d", r.class, r.d.name, r.d.queries[r.qi[0]], resp.Count, len(resp.Values), want)
	}
	return nil
}

// profileQueries are each dataset's spec queries.
func profileQueries() map[string][]string {
	out := map[string][]string{}
	for _, s := range bench.Specs {
		out[s.Dataset] = append(out[s.Dataset], s.Query)
	}
	return out
}

// serveInputs is everything a serve run sends, generated from the seed.
type serveInputs struct {
	warmup    []*request // set-up requests, one per distinct query and set
	open      []*request
	closed    []*request
	hot, cold []*doc
}

func makeServeInputs(seed int64, seconds int) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	queries := profileQueries()
	nOpen := int(openRate * openShare * float64(seconds))
	classes := make([]mixClass, nOpen+closedRequests)
	nCold := 0
	for i := range classes {
		w := rng.Intn(100)
		for _, c := range mix {
			if w -= c.weight; w < 0 {
				classes[i] = c
				break
			}
		}
		if !classes[i].hot {
			nCold++
		}
	}
	var jobs []docJob
	for h, p := range hotProfiles {
		jobs = append(jobs, docJob{name: "hot-" + p, profile: p, size: hotDocBytes, seed: derivedSeed(seed, hotSeeds, h), queries: queries[p]})
	}
	profiles := jsongen.Profiles()
	for i := 0; i < nCold; i++ {
		p := profiles[i%len(profiles)].Name
		jobs = append(jobs, docJob{name: "cold-" + p, profile: p, size: coldDocBytes, seed: derivedSeed(seed, coldSeeds, i), queries: queries[p]})
	}
	for i, p := range profiles {
		jobs = append(jobs, docJob{name: "warmup-" + p.Name, profile: p.Name, size: warmupDocBytes, seed: derivedSeed(seed, warmupSeeds, i), queries: queries[p.Name]})
	}
	docs, err := makeDocs(jobs)
	if err != nil {
		return nil, err
	}
	seen := map[[32]byte]bool{}
	for _, d := range docs {
		sum := sha256.Sum256(d.data)
		if seen[sum] {
			return nil, fmt.Errorf("generated document %s repeats an earlier one", d.name)
		}
		seen[sum] = true
	}
	hot, cold, warm := docs[:len(hotProfiles)], docs[len(hotProfiles):len(hotProfiles)+nCold], docs[len(hotProfiles)+nCold:]
	in := &serveInputs{hot: hot, cold: cold}
	for _, d := range warm {
		for i := range d.queries {
			in.warmup = append(in.warmup, newRequest("warmup", d, []int{i}, "count", true))
		}
		in.warmup = append(in.warmup, newRequest("warmup", d, allQueries(d), "count", false))
	}
	// A hot request repeats an earlier one's body; sharing the request
	// keeps the run's memory to about one copy of each body.
	type hotKey struct {
		class string
		d     *doc
		q     int
	}
	hotReqs := map[hotKey]*request{}
	for i, c := range classes {
		var d *doc
		if c.hot {
			d = hot[rng.Intn(len(hot))]
		} else {
			d, cold = cold[0], cold[1:]
		}
		qi := allQueries(d)
		if !c.multi {
			qi = []int{rng.Intn(len(d.queries))}
		}
		var r *request
		if c.hot {
			k := hotKey{c.name, d, qi[0]}
			if hotReqs[k] == nil {
				hotReqs[k] = newRequest(c.name, d, qi, c.mode, c.raw)
			}
			r = hotReqs[k]
		} else {
			r = newRequest(c.name, d, qi, c.mode, c.raw)
		}
		if i < nOpen {
			in.open = append(in.open, r)
		} else {
			in.closed = append(in.closed, r)
		}
	}
	return in, nil
}

// scrapeMetrics reads the daemon's /metrics counters through its handler.
func scrapeMetrics(h http.Handler) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

func metricsDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// liveServer is a daemon serving on loopback.
type liveServer struct {
	srv     *server.Server
	done    chan error
	base    string
	clients []*http.Client
}

// startServer builds, starts and warms a daemon: the set-up that setup_s
// times.
func startServer(warmup []*request, t *tally) (*liveServer, error) {
	srv := server.New(daemonConfig("127.0.0.1:0"))
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, done: make(chan error, 1), base: "http://" + srv.Addr().String()}
	go func() { ls.done <- srv.Serve() }()
	for i := 0; i < connections(); i++ {
		ls.clients = append(ls.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
				DisableCompression: true},
		})
	}
	for i, r := range warmup {
		o := send(ls.clients[i%len(ls.clients)], ls.base, r)
		if t.note(o.err) != nil {
			ls.stop()
			return nil, fmt.Errorf("warm-up failed: %w", o.err)
		}
	}
	return ls, nil
}

// stop shuts the daemon down and waits for Serve to return.
func (ls *liveServer) stop() error {
	for _, c := range ls.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if serr := <-ls.done; err == nil {
		err = serr
	}
	return err
}

// connections caps the generator's connections at nproc, and at two.
func connections() int { return max(1, min(2, runtime.NumCPU())) }

// serveWorkload runs the serve workload: set-up (repeated), the open loop,
// then the closed loop, on one daemon.
func serveWorkload(seed int64, seconds int, t *tally, tr *tracer) (map[string]metric, error) {
	start := time.Now()
	in, err := makeServeInputs(seed, seconds)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory() // as in libraryWorkload
	logPhase("inputs", start)
	start = time.Now()
	var setups []float64
	var live *liveServer
	for r := 0; r < serveSetups; r++ {
		if live != nil {
			if err := live.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if live, err = startServer(in.warmup, t); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	logPhase("set-up", start)
	start = time.Now()
	m, err := measureServe(live, in, seconds, t, tr)
	logPhase("measurement", start)
	if serr := live.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping the daemon: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	if tr == nil {
		m["setup_s"] = metric{median(setups), "s"}
	}
	return m, nil
}

// measureServe runs the open loop, then the closed loop on the rest of the
// time, on one warmed daemon.
func measureServe(live *liveServer, in *serveInputs, seconds int, t *tally, tr *tracer) (map[string]metric, error) {
	before, err := scrapeMetrics(live.srv.Handler())
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	open := openLoop(live, in.open, openRate)
	budget := time.Duration(seconds)*time.Second - open.elapsed
	closed := closedLoop(live, in.closed, max(budget, time.Second))
	runtime.ReadMemStats(&ms1)
	after, err := scrapeMetrics(live.srv.Handler())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: open loop: %s\nperfbench: closed loop: %s\n", open.summary(), closed.summary())
	// A refused request (429 or 503) is the daemon shedding load, not a
	// wrong answer: it counts against goodput_rps and capacity_rps and as
	// infinitely late, but does not fail the run.
	for _, o := range append(open.outcomes, closed.outcomes...) {
		if o.kind == refused {
			t.attempt(nil)
		} else {
			t.attempt(o.err)
		}
	}
	if tr != nil {
		return serveLayers(in, open, metricsDelta(before, after), t, tr)
	}
	m, err := serveMetrics(open, closed)
	if err != nil {
		return nil, err
	}
	m["alloc_bytes_per_byte"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(open.bytes+closed.bytes), "B/B"}
	return m, nil
}
