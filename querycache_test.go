package rsonpath

import (
	"sync"
	"testing"
)

// TestQueryCacheHitMiss verifies the counters and that a hit returns the
// identical compiled object.
func TestQueryCacheHitMiss(t *testing.T) {
	c := NewQueryCache(8)
	q1, err := c.Get("$..a")
	if err != nil {
		t.Fatalf("first Get: %v", err)
	}
	q2, err := c.Get("$..a")
	if err != nil {
		t.Fatalf("second Get: %v", err)
	}
	if q1 != q2 {
		t.Fatalf("hit returned a different *Query")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Len != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / len 1", st)
	}
	n, err := q2.Count([]byte(`{"a": 1, "b": {"a": 2}}`))
	if err != nil || n != 2 {
		t.Fatalf("cached query Count = %d, %v; want 2, nil", n, err)
	}
}

// TestQueryCacheOptionsKeyed verifies that the same query text under
// different options compiles separately: options are part of the key.
func TestQueryCacheOptionsKeyed(t *testing.T) {
	c := NewQueryCache(8)
	qa, err := c.Get("$.a")
	if err != nil {
		t.Fatal(err)
	}
	qb, err := c.Get("$.a", WithEngine(EngineDOM))
	if err != nil {
		t.Fatal(err)
	}
	if qa == qb {
		t.Fatalf("different options returned the same entry")
	}
	ea, eb := qa.Explain(DocStats{}).Engine, qb.Explain(DocStats{}).Engine
	if ea != EngineRsonpath || eb != EngineDOM {
		t.Fatalf("engines = %v, %v", ea, eb)
	}
	qc, err := c.Get("$.a", WithMaxMatches(3))
	if err != nil {
		t.Fatal(err)
	}
	if qc == qa {
		t.Fatalf("limit option did not split the key")
	}
	if st := c.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 3 misses", st)
	}
}

// TestQueryCacheEviction fills a capacity-2 cache with three entries and
// verifies the least recently used one is recompiled on the next Get.
func TestQueryCacheEviction(t *testing.T) {
	c := NewQueryCache(2)
	for _, src := range []string{"$.a", "$.b"} {
		if _, err := c.Get(src); err != nil {
			t.Fatal(err)
		}
	}
	// Touch $.a so $.b is the LRU victim.
	if _, err := c.Get("$.a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("$.c"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Len != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / len 2", st)
	}
	// $.a survived; $.b was evicted and must recompile.
	if _, err := c.Get("$.a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("$.b"); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("stats = %+v, want 2 hits / 4 misses", st)
	}
	if st.Evictions != 2 { // $.b's re-insert pushed out $.c's LRU victim
		t.Fatalf("stats = %+v, want 2 evictions", st)
	}
}

// TestQueryCacheErrorNotCached verifies a compile failure is returned but
// not retained: the key stays absent and the counters treat every attempt
// as a miss.
func TestQueryCacheErrorNotCached(t *testing.T) {
	c := NewQueryCache(8)
	for i := 0; i < 2; i++ {
		if _, err := c.Get("$["); err == nil {
			t.Fatalf("attempt %d: bad query compiled", i)
		}
	}
	st := c.Stats()
	if st.Len != 0 {
		t.Fatalf("failed compile was cached: %+v", st)
	}
	if st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses", st)
	}
}

// TestQueryCacheGetSet exercises the QuerySet side: hits return the shared
// set, member order is part of the key, and query/set entries with related
// texts do not collide.
func TestQueryCacheGetSet(t *testing.T) {
	c := NewQueryCache(8)
	s1, err := c.GetSet([]string{"$.a", "$..b"})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.GetSet([]string{"$.a", "$..b"})
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("set hit returned a different *QuerySet")
	}
	s3, err := c.GetSet([]string{"$..b", "$.a"})
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatalf("member order was not part of the key")
	}
	counts, err := s1.Counts([]byte(`{"a": {"b": 1}, "b": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("counts = %v, want [1 2]", counts)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

// TestQueryCacheConcurrent hammers one key from many goroutines and
// verifies singleflight behavior: exactly one compile, everyone gets the
// same object. Run under -race this is also the data-race check.
func TestQueryCacheConcurrent(t *testing.T) {
	c := NewQueryCache(8)
	const goroutines = 32
	var wg sync.WaitGroup
	got := make([]*Query, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, err := c.Get("$..deep.label", WithMaxDepth(100))
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			got[i] = q
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different compile", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("compiled %d times, want 1 (singleflight)", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Fatalf("stats = %+v, want %d hits", st, goroutines-1)
	}
}

// TestQueryCachePurge verifies Purge empties the cache but keeps counters.
func TestQueryCachePurge(t *testing.T) {
	c := NewQueryCache(8)
	if _, err := c.Get("$.a"); err != nil {
		t.Fatal(err)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after Purge = %d", c.Len())
	}
	if _, err := c.Get("$.a"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses (purged entry recompiles)", st)
	}
}
