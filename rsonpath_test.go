package rsonpath

import (
	"errors"
	"strings"
	"testing"
)

const sampleDoc = `{
  "store": {
    "book": [
      {"title": "Sayings", "price": 8.95, "author": {"name": "N"}},
      {"title": "Moby Dick", "price": 8.99}
    ],
    "bicycle": {"price": 19.95}
  },
  "price": 0
}`

func TestCompileAndCount(t *testing.T) {
	q, err := Compile("$..price")
	if err != nil {
		t.Fatal(err)
	}
	n, err := q.Count([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("Count = %d, want 4", n)
	}
}

func TestMatchValues(t *testing.T) {
	q := MustCompile("$.store.book.*.title")
	vals, err := q.MatchValues([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || string(vals[0]) != `"Sayings"` || string(vals[1]) != `"Moby Dick"` {
		t.Fatalf("values = %q", vals)
	}
}

func TestMatchValuesComposite(t *testing.T) {
	q := MustCompile("$.store.bicycle")
	vals, err := q.MatchValues([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || string(vals[0]) != `{"price": 19.95}` {
		t.Fatalf("values = %q", vals)
	}
}

func TestMatchValuesTruncatedShortCircuits(t *testing.T) {
	// The matched value `[1}` never closes its bracket, so extraction fails;
	// the run must be abandoned there instead of scanning on to the
	// document's own malformed end (which would mask the extraction error
	// with the engine's).
	doc := []byte(`{"a": [1}`)
	vals, err := MustCompile("$.a").MatchValues(doc)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncated-value error", err)
	}
	if len(vals) != 0 {
		t.Fatalf("values = %q", vals)
	}
}

func TestMatchValuesTruncatedKeepsEarlierValues(t *testing.T) {
	// The first match extracts fine; the second is truncated. The values
	// collected before the failure are returned with the error.
	doc := []byte(`{"a": 1, "b": {"a": [2`)
	vals, err := MustCompile("$..a").MatchValues(doc)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncated-value error", err)
	}
	if len(vals) != 1 || string(vals[0]) != "1" {
		t.Fatalf("values = %q", vals)
	}
}

func TestMatchOffsetsOrdered(t *testing.T) {
	q := MustCompile("$..price")
	offs, err := q.MatchOffsets([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			t.Fatalf("offsets not increasing: %v", offs)
		}
	}
}

func TestEnginesAgree(t *testing.T) {
	doc := []byte(sampleDoc)
	for _, query := range []string{"$.store.book.*.price", "$.store.book.*.title"} {
		baseline := MustCompile(query, WithEngine(EngineSurfer))
		want, err := baseline.MatchOffsets(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []EngineKind{EngineRsonpath, EngineSki} {
			q, err := Compile(query, WithEngine(kind))
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			got, err := q.MatchOffsets(doc)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v on %s: %v, surfer %v", kind, query, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v on %s: %v, surfer %v", kind, query, got, want)
				}
			}
		}
	}
}

func TestSkiRejectsDescendants(t *testing.T) {
	if _, err := Compile("$..a", WithEngine(EngineSki)); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("err = %v, want ErrUnsupportedQuery", err)
	}
}

// TestUnsupportedQueryNamesEngine: the sentinel is the library's own, and
// the error names the refusing engine and the first rejected selector.
func TestUnsupportedQueryNamesEngine(t *testing.T) {
	cases := []struct {
		query string
		kind  EngineKind
		want  string
	}{
		{"$.a..b", EngineSki, "engine ski rejects selector ..b"},
		{"$.a[1]", EngineSki, "engine ski rejects selector [1]"},
		{"$.a..b", EngineStackless, "engine stackless rejects selector .a"},
		{"$..a.*", EngineStackless, "engine stackless rejects selector .*"},
		{"$", EngineStackless, "engine stackless rejects the selector-free query $"},
	}
	for _, c := range cases {
		_, err := Compile(c.query, WithEngine(c.kind))
		if !errors.Is(err, ErrUnsupportedQuery) {
			t.Fatalf("%s on %v: err %v, want ErrUnsupportedQuery", c.query, c.kind, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s on %v: err %q, want it to contain %q", c.query, c.kind, err, c.want)
		}
		if strings.Contains(err.Error(), "JSONSki") && c.kind != EngineSki {
			t.Errorf("%s on %v: err %q blames another engine", c.query, c.kind, err)
		}
	}
}

func TestWithOptimizations(t *testing.T) {
	q := MustCompile("$..price", WithOptimizations(Optimizations{
		NoHeadSkip: true, NoSkipChildren: true, NoSkipSiblings: true, NoSkipLeaves: true,
	}))
	n, err := q.Count([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("Count = %d, want 4", n)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("store.book"); err == nil {
		t.Fatal("missing $ accepted")
	}
	if _, err := Compile("$..a" + strings.Repeat(".*", 16)); err == nil {
		t.Fatal("blowup query accepted")
	}
}

func TestQueryAccessors(t *testing.T) {
	q := MustCompile("$['store'].book", WithEngine(EngineSurfer))
	if q.Source() != "$['store'].book" {
		t.Error("Source mismatch")
	}
	if q.String() != "$.store.book" {
		t.Errorf("String = %q", q.String())
	}
	if q.Explain(DocStats{}).Engine != EngineSurfer {
		t.Error("Engine mismatch")
	}
	if EngineRsonpath.String() != "rsonpath" || EngineSki.String() != "ski" ||
		EngineSurfer.String() != "surfer" || EngineKind(9).String() != "EngineKind(9)" {
		t.Error("EngineKind.String wrong")
	}
}

func TestCountReader(t *testing.T) {
	q := MustCompile("$..title")
	n, err := q.CountReader(strings.NewReader(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("CountReader = %d, want 2", n)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic")
		}
	}()
	MustCompile("bogus")
}

func TestValueAt(t *testing.T) {
	doc := []byte(`{"a": [1, "s\"x", {"b": 2}], "n": -1.5e3, "t": true}`)
	cases := []struct {
		pos  int
		want string
	}{
		{0, string(doc)},
		{6, `[1, "s\"x", {"b": 2}]`},
		{7, "1"},
		{10, `"s\"x"`},
		{18, `{"b": 2}`},
	}
	for _, c := range cases {
		got, err := ValueAt(doc, c.pos)
		if err != nil {
			t.Fatalf("ValueAt(%d): %v", c.pos, err)
		}
		if string(got) != c.want {
			t.Fatalf("ValueAt(%d) = %q, want %q", c.pos, got, c.want)
		}
	}
}

func TestValueAtErrors(t *testing.T) {
	if _, err := ValueAt([]byte(`{}`), 5); err == nil {
		t.Error("out of range accepted")
	}
	if _, err := ValueAt([]byte(`{"a":`), 0); err == nil {
		t.Error("truncated object accepted")
	}
	if _, err := ValueAt([]byte(`"unterminated`), 0); err == nil {
		t.Error("truncated string accepted")
	}
	if v, err := ValueAt([]byte(`12345`), 0); err != nil || string(v) != "12345" {
		t.Errorf("scalar at EOF: %q, %v", v, err)
	}
}

func TestConcurrentUse(t *testing.T) {
	// Compiled queries must be safe for concurrent use: each Run carries
	// its own state.
	q := MustCompile("$..price")
	data := []byte(sampleDoc)
	done := make(chan int, 16)
	for i := 0; i < 16; i++ {
		go func() {
			total := 0
			for j := 0; j < 50; j++ {
				n, err := q.Count(data)
				if err != nil {
					total = -1
					break
				}
				total += n
			}
			done <- total
		}()
	}
	for i := 0; i < 16; i++ {
		if got := <-done; got != 50*4 {
			t.Fatalf("concurrent run returned %d, want %d", got, 200)
		}
	}
}

func TestTailSkipOption(t *testing.T) {
	q := MustCompile("$.store..price", WithOptimizations(Optimizations{TailSkip: true}))
	n, err := q.Count([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Count = %d, want 3", n)
	}
}

func TestUnionQueries(t *testing.T) {
	q := MustCompile("$.store.book.*['title','price']")
	n, err := q.Count([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("Count = %d, want 4", n)
	}
}

func TestUTF8LabelsAndValues(t *testing.T) {
	doc := `{"日本語": {"ключ": [1, 2]}, "emoji🎉": "värde", "x": {"日本語": 3}}`
	for _, c := range []struct {
		query string
		want  int
	}{
		{"$.日本語.ключ.*", 2},
		{"$..日本語", 2},
		{"$['emoji🎉']", 1},
		{"$..ключ", 1},
	} {
		for _, kind := range []EngineKind{EngineRsonpath, EngineSurfer} {
			q := MustCompile(c.query, WithEngine(kind))
			n, err := q.Count([]byte(doc))
			if err != nil {
				t.Fatalf("%s (%v): %v", c.query, kind, err)
			}
			if n != c.want {
				t.Fatalf("%s (%v): %d matches, want %d", c.query, kind, n, c.want)
			}
		}
	}
}

func TestEngineDOM(t *testing.T) {
	doc := []byte(`{"person": {"name": "A", "person": {"name": "B"}}}`)
	node := MustCompile("$..person..name", WithEngine(EngineDOM))
	n, err := node.Count(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("node semantics count = %d, want 2", n)
	}
	path := MustCompile("$..person..name", WithEngine(EngineDOM), WithSemantics(PathSemantics))
	n, err = path.Count(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // "B" reachable through both person matches
		t.Fatalf("path semantics count = %d, want 3", n)
	}
	if EngineDOM.String() != "dom" {
		t.Error("EngineDOM name")
	}
	// DOM engine validates strictly.
	if _, err := node.Count([]byte(`{"a":`)); err == nil {
		t.Error("malformed input accepted by DOM engine")
	}
}

func TestPathSemanticsRequiresDOM(t *testing.T) {
	if _, err := Compile("$..a", WithSemantics(PathSemantics)); err == nil {
		t.Fatal("path semantics accepted on streaming engine")
	}
	if _, err := Compile("$..a", WithSemantics(NodeSemantics)); err != nil {
		t.Fatal(err)
	}
}

func TestAllEnginesAgreeOnNodeSemantics(t *testing.T) {
	doc := []byte(sampleDoc)
	want, err := MustCompile("$.store.book.*.price", WithEngine(EngineDOM)).MatchOffsets(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []EngineKind{EngineRsonpath, EngineSurfer, EngineSki} {
		got, err := MustCompile("$.store.book.*.price", WithEngine(kind)).MatchOffsets(doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v disagrees with DOM: %v vs %v", kind, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v disagrees with DOM: %v vs %v", kind, got, want)
			}
		}
	}
}

func TestEngineStackless(t *testing.T) {
	doc := []byte(`{"a": {"x": {"b": 1}}, "b": 2}`)
	q := MustCompile("$..a..b", WithEngine(EngineStackless))
	n, err := q.Count(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count %d, want 1", n)
	}
	if EngineStackless.String() != "stackless" {
		t.Error("EngineStackless name")
	}
	if _, err := Compile("$.a..b", WithEngine(EngineStackless)); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("mixed query err = %v, want ErrUnsupportedQuery", err)
	}
}
