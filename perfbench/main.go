// Command perfbench is the repository's benchmark. It runs one workload
// (scan, seek, multi or serve) over inputs generated from a seed, checks
// every operation against the internal/dom oracle, and prints one JSON
// result line; see README.md for the workloads and metrics.
//
//	perfbench --workload scan --seed 1 --seconds 20 --trace 0
//	perfbench compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what --out stores: the result with its environment stamp.
type record struct {
	Env    envStamp `json:"env"`
	Result result   `json:"result"`
}

// tally counts checked operations. Every mismatch against the oracle, run
// error or bad response is a failure; the first few are printed.
type tally struct {
	attempted, failed int
	shown             int
	log               io.Writer
}

// note records a check made outside the timed operations (set-up,
// decomposition calls).
func (t *tally) note(err error) error {
	if err != nil {
		t.failed++
		if t.shown < 10 {
			t.shown++
			fmt.Fprintln(t.log, "perfbench: FAIL:", err)
		}
	}
	return err
}

// attempt records one timed operation.
func (t *tally) attempt(err error) error {
	t.attempted++
	return t.note(err)
}

// logPhase reports a phase's wall time on standard error, for whoever
// budgets the benchmark's running time.
func logPhase(name string, start time.Time) {
	fmt.Fprintf(os.Stderr, "perfbench: %s took %.1fs\n", name, time.Since(start).Seconds())
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "scan, seek, multi or serve")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", "", "also write the result with its environment stamp to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	env := stampEnv(".", *workload, *seed, *seconds, *trace == 1)
	if b, err := json.Marshal(env); err == nil {
		fmt.Fprintf(stdout, "env %s\n", b)
	}

	t := &tally{log: stderr}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	var metrics map[string]metric
	var err error
	switch *workload {
	case "scan", "seek", "multi":
		metrics, err = libraryWorkload(*workload, *seed, *seconds, t, tr)
	case "serve":
		metrics, err = serveWorkload(*seed, *seconds, t, tr)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = tr.write(path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	if *out != "" {
		b, _ := json.MarshalIndent(record{Env: env, Result: res}, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}

// compare prints each metric of two --out records side by side. Records
// taken on different SIMD backends, or of different workloads, are not
// comparable and exit with status 3.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare old.json new.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	a, b := recs[0], recs[1]
	switch {
	case a.Env.SimdBackend != b.Env.SimdBackend:
		fmt.Fprintf(stdout, "not comparable: simd backend %s vs %s\n", a.Env.SimdBackend, b.Env.SimdBackend)
		return 3
	case a.Env.Workload != b.Env.Workload || a.Env.Trace != b.Env.Trace:
		fmt.Fprintf(stdout, "not comparable: workload %s (trace %v) vs %s (trace %v)\n",
			a.Env.Workload, a.Env.Trace, b.Env.Workload, b.Env.Trace)
		return 3
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for name := range a.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		old, cur := a.Result.Metrics[name], b.Result.Metrics[name]
		delta := "n/a"
		if old.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cur.Value-old.Value)/old.Value)
		}
		fmt.Fprintf(stdout, "%-36s %14.6g %14.6g %-8s %s\n", name, old.Value, cur.Value, old.Unit, delta)
	}
	return 0
}
