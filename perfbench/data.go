package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"rsonpath/internal/dom"
	"rsonpath/internal/jsongen"
	"rsonpath/internal/jsonpath"
)

// doc is one generated document with the DOM oracle's match count for
// each query the workload runs over it. The oracle is computed before any
// timing starts and is independent of the engines under test.
type doc struct {
	name    string
	data    []byte
	queries []string
	want    []int
}

// oracleCounts evaluates every query over data with the internal/dom
// reference evaluator.
func oracleCounts(data []byte, queries []string) ([]int, error) {
	root, err := dom.Parse(data)
	if err != nil {
		return nil, err
	}
	want := make([]int, len(queries))
	for i, q := range queries {
		parsed, err := jsonpath.Parse(q)
		if err != nil {
			return nil, err
		}
		want[i] = len(dom.Eval(root, parsed, dom.NodeSemantics))
	}
	return want, nil
}

// docJob describes one document to generate: a jsongen profile at a target
// size (0 = the profile's default) from a seed.
type docJob struct {
	name    string
	profile string
	size    int
	seed    int64
	queries []string
}

// makeDocs generates the documents and their oracle answers on at most
// GOMAXPROCS goroutines (largest first, so the two ends of the work finish
// together), returning them in job order.
func makeDocs(jobs []docJob) ([]*doc, error) {
	out := make([]*doc, len(jobs))
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobSize(jobs[order[a]]) > jobSize(jobs[order[b]]) })
	next := make(chan int)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				data, err := jsongen.Generate(j.profile, j.size, j.seed)
				if err == nil {
					var want []int
					if want, err = oracleCounts(data, j.queries); err == nil {
						out[i] = &doc{name: j.name, data: data, queries: j.queries, want: want}
					}
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", j.name, err)
				}
			}
		}()
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func jobSize(j docJob) int {
	if j.size > 0 {
		return j.size
	}
	p, _ := jsongen.ByName(j.profile)
	return p.DefaultSize
}

// Derived seeds keep a run's kinds of generated documents apart: the
// workload seed picks the family, the kind and index pick the member.
const (
	hotSeeds = iota + 1
	coldSeeds
	warmupSeeds
)

func derivedSeed(seed int64, kind, i int) int64 {
	return seed*10_000_000 + int64(kind)*1_000_000 + int64(i)
}
