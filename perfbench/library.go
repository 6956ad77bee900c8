package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"rsonpath"
	"rsonpath/internal/bench"
)

// The library workloads run their operations one at a time on one
// goroutine: the host this benchmark was sized on has two vCPUs, and a
// second busy goroutine would measure the scheduler, not the engine.

// scanExtra are the descendant specs that walk most of the document; with
// the 20 child-form specs they make the scan workload.
var scanExtra = []string{"A2", "A3", "B1r", "C1", "C2r", "C4r", "W2r", "Ts4", "Ts5"}

// seekIDs are the selective descendant-leading specs, where head-skip's
// label seek covers most bytes.
var seekIDs = []string{"A1", "B2r", "B3r", "C3r", "C5r", "G2r", "O1r", "O2r", "O3r", "Tsr", "Tsp", "W1r", "Wir"}

// workloadSpecs returns the specs a library workload runs, in the order of
// bench.Specs (grouped by dataset).
func workloadSpecs(name string) []bench.Spec {
	pick := map[string]bool{}
	switch name {
	case "scan":
		for _, s := range bench.Specs {
			if !strings.Contains(s.Query, "..") {
				pick[s.ID] = true
			}
		}
		for _, id := range scanExtra {
			pick[id] = true
		}
	case "seek":
		for _, id := range seekIDs {
			pick[id] = true
		}
	case "multi":
		for _, s := range bench.Specs {
			pick[s.ID] = true
		}
	}
	var out []bench.Spec
	for _, s := range bench.Specs {
		if pick[s.ID] {
			out = append(out, s)
		}
	}
	return out
}

// libraryJobs groups a workload's specs into one document per dataset, at
// the profile's default size, and appends one small warm-up document per
// dataset with the same queries.
func libraryJobs(specs []bench.Spec, seed int64) []docJob {
	var jobs []docJob
	at := map[string]int{}
	for _, s := range specs {
		i, ok := at[s.Dataset]
		if !ok {
			i = len(jobs)
			at[s.Dataset] = i
			jobs = append(jobs, docJob{name: s.Dataset, profile: s.Dataset, seed: seed})
		}
		jobs[i].queries = append(jobs[i].queries, s.Query)
	}
	for i, j := range jobs[:len(jobs):len(jobs)] {
		jobs = append(jobs, docJob{name: "warmup-" + j.name, profile: j.profile, size: warmupDocBytes,
			seed: derivedSeed(seed, warmupSeeds, i), queries: j.queries})
	}
	return jobs
}

// libOp is one timed operation: a cold in-memory Query.Count of one query
// (scan, seek), or one QuerySet.RunReader of all of a dataset's queries
// over an io.Reader with the default window (multi).
type libOp struct {
	name   string
	doc    *doc
	warm   *doc // the small document set-up warms the operation on
	qi     int
	q      *rsonpath.Query
	set    *rsonpath.QuerySet
	counts []int
}

// compileOps compiles the operations over docs; warm[i] is docs[i]'s
// warm-up document.
func compileOps(docs, warm []*doc, multi bool) ([]*libOp, error) {
	var ops []*libOp
	for k, d := range docs {
		if multi {
			set, err := rsonpath.CompileSet(d.queries)
			if err != nil {
				return nil, err
			}
			ops = append(ops, &libOp{name: d.name, doc: d, warm: warm[k], set: set, counts: make([]int, len(d.queries))})
			continue
		}
		for i, src := range d.queries {
			q, err := rsonpath.Compile(src)
			if err != nil {
				return nil, err
			}
			ops = append(ops, &libOp{name: d.name + " " + src, doc: d, warm: warm[k], qi: i, q: q})
		}
	}
	return ops, nil
}

func (o *libOp) bytes() int { return len(o.doc.data) }

// run executes the operation over its document and checks its counts
// against the oracle.
func (o *libOp) run() error { return o.runOn(o.doc) }

// runOn executes the operation's query or set over d, which holds the same
// queries as the operation's own document.
func (o *libOp) runOn(d *doc) error {
	if o.set == nil {
		n, err := o.q.Count(d.data)
		return checkCount(o.name+" on "+d.name, n, d.want[o.qi], err)
	}
	clear(o.counts)
	err := o.set.RunReader(bytes.NewReader(d.data), func(q, _ int) { o.counts[q]++ })
	return checkCounts(o.name+" on "+d.name, d.queries, o.counts, d.want, err)
}

func checkCount(what string, got, want int, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if got != want {
		return fmt.Errorf("%s: count %d, oracle says %d", what, got, want)
	}
	return nil
}

func checkCounts(what string, queries []string, got, want []int, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s %s: count %d, oracle says %d", what, queries[i], got[i], want[i])
		}
	}
	return nil
}

// An untraced run samples set-up setupSamples times, spread evenly over
// its measured seconds; each sample is the mean time of back-to-back
// set-ups over at least setupSampleTime, and setup_s is the median of the
// samples. One set-up takes a few milliseconds, and the 2-vCPU VM the
// benchmark was sized on switches every 40-400 ms between two speeds about
// 40% apart (the same with forced collections, on either vCPU, with a
// constant page-fault count per set-up, so the switching is the host's).
// Single set-ups timed back to back before the first pass caught one
// speed, and the median of a run jumped between the two levels from run
// to run; a sample spanning several switches averages them.
const (
	setupSamples    = 10
	setupSampleTime = 200 * time.Millisecond
)

// warmupDocBytes is the jsongen target size of the documents set-up warms
// the operations on: large enough to take every code path of the query,
// small enough that set-up measures compiling and first use, not a pass
// over the datasets.
const warmupDocBytes = 16 << 10

// setUp compiles the workload's queries and runs every operation once over
// its warm-up document, returning the operations and the seconds it took.
func setUp(docs, warm []*doc, multi bool, t *tally) ([]*libOp, float64, error) {
	start := time.Now()
	ops, err := compileOps(docs, warm, multi)
	if err != nil {
		return nil, 0, err
	}
	for _, o := range ops {
		t.note(o.runOn(o.warm))
	}
	return ops, time.Since(start).Seconds(), nil
}

// passTimes records one untraced pass over all operations.
type passTimes struct {
	wall      time.Duration
	bytes     int
	failed    int
	allocated uint64          // heap bytes allocated during the pass
	ops       []time.Duration // per operation, in op order
}

// timedPass runs every operation once, in order.
func timedPass(ops []*libOp, t *tally) passTimes {
	p := passTimes{ops: make([]time.Duration, len(ops))}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i, o := range ops {
		s := time.Now()
		err := o.run()
		p.ops[i] = time.Since(s)
		p.bytes += o.bytes()
		if t.attempt(err) != nil {
			p.failed++
		}
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	p.allocated = ms1.TotalAlloc - ms0.TotalAlloc
	return p
}

// runLibrary measures a library workload untraced: whole passes over the
// operation mix until the next pass would end past the deadline (at least
// one pass), with set-up samples taken between passes and not charged to
// the deadline.
func runLibrary(ops []*libOp, seconds int, t *tally, setUp func() (float64, error)) (map[string]metric, error) {
	budget := time.Duration(seconds) * time.Second
	// One collection clears the set-up's garbage. None is forced between
	// passes: the operations allocate little, so passes run without
	// collections, and a forced one would empty the sync.Pool of stream
	// windows that steady-state callers keep warm.
	runtime.GC()
	start := time.Now()
	var passes []passTimes
	var setups []float64
	var sampling time.Duration // spent on set-up samples
	measured := func() time.Duration { return time.Since(start) - sampling }
	for len(passes) == 0 || measured()+passes[len(passes)-1].wall <= budget {
		passes = append(passes, timedPass(ops, t))
		if len(setups) == setupSamples || measured() < time.Duration(len(setups))*budget/setupSamples {
			continue
		}
		s := time.Now()
		var total float64
		n := 0
		for time.Since(s) < setupSampleTime {
			d, err := setUp()
			if err != nil {
				return nil, err
			}
			total += d
			n++
		}
		setups = append(setups, total/float64(n))
		sampling += time.Since(s)
	}
	m, err := libraryMetrics(ops, passes)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: setup_s is the median of %d samples\n", len(setups))
	m["setup_s"] = metric{median(setups), "s"}
	return m, nil
}

// libraryMetrics reports whole-run figures: rates are totals over all
// passes, and each operation's latency is its mean over passes before the
// percentiles are taken across the operation mix. The host the benchmark
// was sized on runs at one of a few speeds for seconds at a time; a median
// over passes jumps from one level to the next as the share of time spent
// in each crosses a half, while a mean weighs the levels by the time spent
// in them and moves smoothly. Allocation is the median over passes, so
// that a pass in which a sync.Pool refills does not move it.
func libraryMetrics(ops []*libOp, passes []passTimes) (map[string]metric, error) {
	var passAlloc []float64
	var wall time.Duration
	var docBytes, failed int
	perOp := make([]time.Duration, len(ops))
	for _, p := range passes {
		passAlloc = append(passAlloc, float64(p.allocated)/float64(p.bytes))
		wall += p.wall
		docBytes += p.bytes
		failed += p.failed
		for i, d := range p.ops {
			perOp[i] += d
		}
	}
	lat := make([]float64, len(ops))
	rates := make([]float64, len(ops))
	for i, d := range perOp {
		lat[i] = ms(d) / float64(len(passes))
		rates[i] = float64(ops[i].bytes()) / lat[i] / 1e6
	}
	geo, err := geomean(rates)
	if err != nil {
		return nil, err
	}
	p50, _ := percentile(lat, 0.50)
	p90, beyond := percentile(lat, 0.90)
	fmt.Fprintf(os.Stderr, "perfbench: %d passes of %d operations; the latency p90 has %d operations beyond it\n",
		len(passes), len(ops), beyond)
	done := len(passes) * len(ops)
	return map[string]metric{
		"throughput_gbps":      {gbps(docBytes, wall), "GB/s"},
		"query_gbps_geomean":   {geo, "GB/s"},
		"alloc_bytes_per_byte": {median(passAlloc), "B/B"},
		"latency_p50_ms":       {p50, "ms"},
		"latency_p90_ms":       {p90, "ms"},
		"goodput_rps":          {float64(done-failed) / wall.Seconds(), "req/s"},
		"capacity_rps":         {float64(done) / wall.Seconds(), "req/s"},
	}, nil
}

func gbps(bytes int, d time.Duration) float64 { return float64(bytes) / d.Seconds() / 1e9 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// libraryWorkload runs scan, seek or multi: untraced it reports the
// end-to-end metrics, traced the per-layer ones.
func libraryWorkload(name string, seed int64, seconds int, t *tally, tr *tracer) (map[string]metric, error) {
	start := time.Now()
	all, err := makeDocs(libraryJobs(workloadSpecs(name), seed))
	if err != nil {
		return nil, err
	}
	docs, warm := all[:len(all)/2], all[len(all)/2:]
	// Collect the oracle's garbage and return it to the OS now, so that no
	// collection lands inside set-up and empties the pools its first runs
	// fill, and the scavenger has nothing left to release while timing.
	debug.FreeOSMemory()
	logPhase("inputs", start)
	multi := name == "multi"
	start = time.Now()
	ops, _, err := setUp(docs, warm, multi, t)
	if err != nil {
		return nil, err
	}
	logPhase("set-up", start)
	defer logPhase("measurement", time.Now())
	if tr != nil {
		return runLibraryTraced(ops, docs, multi, seconds, t, tr)
	}
	m, err := runLibrary(ops, seconds, t, func() (float64, error) {
		_, s, err := setUp(docs, warm, multi, t)
		return s, err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}
