package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"dkcore/internal/graph"
)

// randomGraph builds a GNM-style random simple graph without importing
// internal/gen (which depends on this package).
func randomGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	seen := make(map[[2]int]bool)
	for len(seen) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(u, v)
	}
	return b.Build()
}

// completeGraph builds K_n.
func completeGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// TestSupportCounterInvariant pins the Maintainer's core data-structure
// contract: after every mutation, supp[u] equals the number of neighbors
// of u with coreness >= core[u]. Both traversals trust this counter for
// their O(1) qualification checks, so a single stale value silently
// corrupts coreness several events later — the direct recount here
// localizes such a bug to the event that introduced it.
func TestSupportCounterInvariant(t *testing.T) {
	check := func(mt *Maintainer, seed int64, step int) {
		t.Helper()
		if err := supportMismatch(mt); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
	}

	const nodes, events = 60, 400
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mt := NewMaintainer(randomGraph(nodes, 3*nodes, seed))
		check(mt, seed, -1)
		for i := 0; i < events; i++ {
			u, v := rng.Intn(nodes+5), rng.Intn(nodes+5)
			if rng.Intn(2) == 0 {
				mt.DeleteEdge(u, v)
			} else {
				mt.InsertEdge(u, v)
			}
			check(mt, seed, i)
		}
	}

	// Dense equal-coreness plateaus exercise the rise path's riser/
	// neighbor repair; the clique's single plateau is the worst case.
	mt := NewMaintainer(completeGraph(16))
	check(mt, -1, -1)
	for i := 0; i < 15; i++ {
		mt.DeleteEdge(0, i+1)
		check(mt, -1, i)
	}
	for i := 0; i < 15; i++ {
		mt.InsertEdge(0, i+1)
		check(mt, -1, 100+i)
	}
}

// supportMismatch recounts every node's support — neighbors with
// coreness >= its own — and reports the first node whose maintained
// counter disagrees, or nil.
func supportMismatch(mt *Maintainer) error {
	for u := range mt.core {
		c := 0
		for _, v := range mt.adj[u] {
			if mt.core[v] >= mt.core[u] {
				c++
			}
		}
		if mt.supp[u] != c {
			return fmt.Errorf("supp[%d] = %d, want %d (core %d, deg %d)",
				u, mt.supp[u], c, mt.core[u], len(mt.adj[u]))
		}
	}
	return nil
}
