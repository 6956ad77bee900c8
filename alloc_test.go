package rsonpath

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"rsonpath/internal/jsongen"
)

// The allocation ceilings below are regression guards for the scratch pools
// (input.BufferedInput window buffers, the lines families' offset and match
// buffers): measured steady-state counts padded ~50% for toolchain noise. A
// failure here means a hot path regained a per-run or per-record allocation
// the pools were added to remove — most likely a NewBuffered call site that
// lost its Release, or a lines eval that stopped threading its scratch.

func allocFixtures() (*Query, *QuerySet, []byte, []byte) {
	q := MustCompile("$.a[*].b")
	s := MustCompileSet([]string{"$.a[*].b", "$.x"})
	doc := []byte(`{"a":[{"b":1},{"b":2},{"b":3}],"x":"` + strings.Repeat("y", 200) + `"}`)
	var lines bytes.Buffer
	for i := 0; i < 64; i++ {
		lines.Write(doc)
		lines.WriteByte('\n')
	}
	return q, s, doc, lines.Bytes()
}

func TestRunReaderAllocs(t *testing.T) {
	q, _, doc, _ := allocFixtures()
	got := testing.AllocsPerRun(50, func() {
		if err := q.RunReader(bytes.NewReader(doc), func(int) {}); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state measures 6; in particular the ~288 KiB window buffer must
	// come from the pool, not a fresh make, on every run after the first.
	if got > 12 {
		t.Fatalf("RunReader: %.1f allocs/run, want <= 12", got)
	}
}

func TestSetRunLinesAllocs(t *testing.T) {
	_, s, _, lines := allocFixtures()
	const records = 64
	got := testing.AllocsPerRun(20, func() {
		if err := s.RunLines(bytes.NewReader(lines), func(SetLineMatch) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if per := got / records; per > 24 {
		t.Fatalf("QuerySet.RunLines: %.2f allocs/record, want <= 24", per)
	}
}

func TestRunLinesParallelAllocs(t *testing.T) {
	q, _, _, lines := allocFixtures()
	const records = 64
	// One worker keeps the schedule deterministic; the pools are what is
	// under test, not the pool of workers.
	got := testing.AllocsPerRun(20, func() {
		if err := q.RunLinesParallel(bytes.NewReader(lines), 1, func(LineMatch) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if per := got / records; per > 20 {
		t.Fatalf("Query.RunLinesParallel: %.2f allocs/record, want <= 20", per)
	}
}

// TestRunAllocPins pins the per-call allocations of the hot entry points,
// all of which run through the one execution core: the core's policy —
// limits, watchdog, supervision — must cost nothing per run beyond what the
// engines themselves allocate. Counts are exact steady-state measurements
// (Go 1.24, amd64), not padded ceilings; a new per-run allocation, such as
// an emit adapter closure escaping into an engine, fails here.
func TestRunAllocPins(t *testing.T) {
	big, err := jsongen.Generate("crossref", 0, 1) // ~9.4 MB
	if err != nil {
		t.Fatal(err)
	}
	small, err := jsongen.Generate("crossref", 16<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile("$..affiliation..name")
	s := MustCompileSet([]string{"$..affiliation..name", "$..title"})
	idx, err := Index(big)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pins := []struct {
		name string
		runs int
		max  float64
		run  func() error
	}{
		{"Query.Count", 5, 6, func() error { _, err := q.Count(big); return err }},
		{"Query.CountIndexed", 5, 5, func() error { _, err := q.CountIndexed(idx); return err }},
		{"QuerySet.Run", 5, 6, func() error { return s.Run(big, func(int, int) {}) }},
		{"Query.RunContext", 50, 4, func() error { return q.RunContext(ctx, small, func(int) {}) }},
		{"Query.RunSupervised", 50, 11, func() error {
			_, err := q.RunSupervised(ctx, small, func(int) {})
			return err
		}},
	}
	for _, p := range pins {
		var runErr error
		got := testing.AllocsPerRun(p.runs, func() {
			if err := p.run(); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", p.name, runErr)
		}
		t.Logf("%s: %.1f allocs/call", p.name, got)
		if got > p.max {
			t.Errorf("%s: %.1f allocs/call, want <= %.0f", p.name, got, p.max)
		}
	}
}
