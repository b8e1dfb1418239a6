// Package stream maintains a k-core decomposition under a stream of edge
// insertions and deletions without recomputing it from scratch.
//
// The engine builds on the same structural fact the paper's distributed
// protocol exploits: coreness is a local fixpoint (Theorem 1), so a single
// edge mutation can change the coreness only of a bounded region around
// the mutated edge. Concretely, for an edge {u, v} with K = min(core(u),
// core(v)):
//
//   - insertion can raise coreness only for nodes with coreness exactly K
//     that are reachable from the lower endpoint through nodes of
//     coreness K, and only by exactly one;
//   - deletion can lower coreness only for the symmetric region, again by
//     exactly one.
//
// (These are the traversal theorems of Sarıyüce et al., "Streaming
// Algorithms for k-Core Decomposition", VLDB 2013, and Li, Yu & Mao's
// incremental-maintenance work; the paper's upper-bound convergence makes
// them directly applicable here.) Maintainer therefore re-seeds upper
// bounds only inside that region on insertion and propagates decreases
// from the endpoints on deletion, giving exact coreness after every event
// in time proportional to the affected region rather than the graph.
// Both traversals qualify nodes through an incrementally maintained
// support counter (neighbors with coreness >= own — the same primitive
// the distributed engines keep per estimate), so merely sighting a node
// on an equal-coreness plateau costs O(1); adjacency walks happen only
// where coreness actually changes.
package stream

import (
	"fmt"
	"sort"

	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

// Maintainer holds a mutable undirected simple graph together with the
// exact coreness of every node, updated incrementally on each mutation.
//
// Node IDs are dense non-negative integers; inserting an edge whose
// endpoints lie beyond the current node count grows the node set with
// isolated (coreness-0) nodes, so memory is proportional to the largest
// node ID mentioned — densify sparse external IDs before feeding them
// in (as cmd/kcore-stream does). A Maintainer is not safe for concurrent
// use; wrap it in a lock, use the live runtime's Mutable for a
// concurrent deployment, or hand readers Frozen views (see Freeze).
type Maintainer struct {
	adj  [][]int // sorted neighbor lists, possibly shared with Frozen views
	core []int   // exact coreness under the current edge set
	m    int     // number of undirected edges

	// Copy-on-write ownership of the neighbor lists: adj[u] may be
	// written in place only while owner[u] == gen. Freeze bumps gen,
	// which hands every current list to the returned view; the first
	// later write to a list copies it and stamps it owned again.
	owner []int
	gen   int

	// supp[u] is the number of neighbors v with core[v] >= core[u] —
	// the same support counter the distributed engines maintain per
	// estimate (internal/core's histogram top bucket), kept exact across
	// every mutation. It makes the two hot questions of both traversals
	// O(1): "can this coreness-k node fall?" (supp < k) on deletion, and
	// "can this coreness-k node rise or transmit a rise?" (supp > k) on
	// insertion — where a per-visit adjacency recount previously paid
	// O(deg) per node sighted, the dominant cost on the equal-coreness
	// plateaus of dense graphs. Adjacency walks remain only where a node
	// actually changes level (recomputing its own support at the new
	// threshold), so work stays proportional to the genuinely affected
	// region.
	supp []int

	// scratch state reused across updates to keep small mutations
	// allocation-free once warm.
	mark    []int // visit stamp per node (compared against stamp)
	cand    []int // candidate stamp per node (insertion traversal)
	cnt     []int // per-node peel support, valid where cand == stamp
	stamp   int
	queue   []int
	region  []int
	touched []int
}

// NewMaintainer returns a Maintainer seeded with g's edges and the exact
// decomposition of g (computed once with the Batagelj–Zaversnik peel).
func NewMaintainer(g *graph.Graph) *Maintainer {
	return newSeeded(g, kcore.Decompose(g).CorenessValues())
}

// newSeeded is the shared constructor: g's edges plus a caller-owned
// coreness slice the Maintainer takes over.
func newSeeded(g *graph.Graph, coreness []int) *Maintainer {
	n := g.NumNodes()
	mt := &Maintainer{
		adj:   make([][]int, n),
		core:  coreness,
		m:     g.NumEdges(),
		supp:  make([]int, n),
		owner: make([]int, n),
		mark:  make([]int, n),
		cand:  make([]int, n),
		cnt:   make([]int, n),
	}
	for u := 0; u < n; u++ {
		ns := g.Neighbors(u)
		mt.adj[u] = append(make([]int, 0, len(ns)), ns...)
		c := 0
		for _, v := range ns {
			if coreness[v] >= coreness[u] {
				c++
			}
		}
		mt.supp[u] = c
	}
	return mt
}

// NewMaintainerFromCoreness returns a Maintainer seeded with g's edges
// and an externally computed coreness assignment — typically one produced
// by a distributed engine — avoiding the sequential recomputation that
// NewMaintainer performs. The assignment is checked against Theorem 1's
// local fixpoint equations, which rejects shape mismatches, overestimates,
// and locally inconsistent values. The check cannot reject a consistent
// underestimate (a fixpoint smaller than the true coreness, e.g. all-ones
// on a cycle) without redoing the full peel, so callers must supply
// values from a source that converges to the true coreness — every
// engine in this module does, since the protocol's estimates approach the
// largest fixpoint from above.
func NewMaintainerFromCoreness(g *graph.Graph, coreness []int) (*Maintainer, error) {
	if len(coreness) != g.NumNodes() {
		return nil, fmt.Errorf("stream: %d coreness values for %d nodes", len(coreness), g.NumNodes())
	}
	if err := kcore.VerifyLocality(g, coreness); err != nil {
		return nil, fmt.Errorf("stream: seed coreness rejected: %w", err)
	}
	return newSeeded(g, append(make([]int, 0, len(coreness)), coreness...)), nil
}

// CoreMembers returns the sorted IDs of every node in the k-core, i.e.
// with coreness >= k. k <= 0 returns every node.
func (mt *Maintainer) CoreMembers(k int) []int {
	var out []int
	for u, c := range mt.core {
		if c >= k {
			out = append(out, u)
		}
	}
	return out
}

// NumNodes returns the current node count.
func (mt *Maintainer) NumNodes() int { return len(mt.core) }

// NumEdges returns the current undirected edge count.
func (mt *Maintainer) NumEdges() int { return mt.m }

// Degree returns the degree of node u, or 0 for unknown nodes.
func (mt *Maintainer) Degree(u int) int {
	if u < 0 || u >= len(mt.adj) {
		return 0
	}
	return len(mt.adj[u])
}

// Coreness returns the exact coreness of node u under the current edge
// set, or 0 for nodes not yet mentioned by any edge.
func (mt *Maintainer) Coreness(u int) int {
	if u < 0 || u >= len(mt.core) {
		return 0
	}
	return mt.core[u]
}

// CorenessValues returns a copy of the per-node coreness array.
func (mt *Maintainer) CorenessValues() []int {
	out := make([]int, len(mt.core))
	copy(out, mt.core)
	return out
}

// MaxCoreness returns the degeneracy of the current graph.
func (mt *Maintainer) MaxCoreness() int {
	maxK := 0
	for _, k := range mt.core {
		if k > maxK {
			maxK = k
		}
	}
	return maxK
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (mt *Maintainer) HasEdge(u, v int) bool { return hasEdge(mt.adj, u, v) }

// hasEdge binary-searches u's sorted list for v.
func hasEdge(adj [][]int, u, v int) bool {
	if u < 0 || v < 0 || u >= len(adj) || v >= len(adj) {
		return false
	}
	ns := adj[u]
	i := sort.SearchInts(ns, v)
	return i < len(ns) && ns[i] == v
}

// Graph materializes the current edge set as an immutable CSR snapshot:
// one copy of the already-sorted neighbor lists, O(n+m) with no sort.
func (mt *Maintainer) Graph() *graph.Graph { return graph.FromSortedLists(mt.adj) }

// Freeze returns a view of the current edge set that later mutations
// never change. It copies only the n list headers: the neighbor lists
// themselves are shared with the view, and the Maintainer copies a
// shared list before its first write after the freeze — so a mutation
// batch between two Freeze calls copies just the lists it touches.
func (mt *Maintainer) Freeze() Frozen {
	mt.gen++
	adj := make([][]int, len(mt.adj))
	copy(adj, mt.adj)
	return Frozen{adj: adj, m: mt.m}
}

// own makes u's neighbor list writable in place, first copying it (with
// room for extra more neighbors) if a Frozen view may share it.
func (mt *Maintainer) own(u, extra int) {
	if mt.owner[u] == mt.gen {
		return
	}
	ns := mt.adj[u]
	mt.adj[u] = append(make([]int, 0, len(ns)+extra), ns...)
	mt.owner[u] = mt.gen
}

// Frozen is an immutable view of a Maintainer's edge set as of one
// Freeze call. It shares the neighbor lists the Maintainer had then
// (copy-on-write keeps them unchanged), so taking one is O(n) whatever
// the edge count. A Frozen is safe for concurrent use, including while
// its Maintainer keeps mutating.
type Frozen struct {
	adj [][]int
	m   int
}

// NumNodes returns the view's node count.
func (f Frozen) NumNodes() int { return len(f.adj) }

// NumEdges returns the view's undirected edge count.
func (f Frozen) NumEdges() int { return f.m }

// HasEdge reports whether the undirected edge {u, v} is in the view, by
// binary search of u's neighbor list.
func (f Frozen) HasEdge(u, v int) bool { return hasEdge(f.adj, u, v) }

// Graph copies the view's edge set into a new CSR graph the caller owns.
func (f Frozen) Graph() *graph.Graph { return graph.FromSortedLists(f.adj) }

// Apply applies one event, returning whether it changed the graph. It
// inherits InsertEdge's and DeleteEdge's tolerance contracts: an event
// that cannot apply (self-loop, negative endpoint, duplicate insert,
// delete of an absent edge or of endpoints beyond the current node set)
// is a no-op returning false, never a panic — so replaying an arbitrary
// or partially stale event stream is always safe.
func (mt *Maintainer) Apply(ev Event) bool {
	if ev.Op == OpDelete {
		return mt.DeleteEdge(ev.U, ev.V)
	}
	return mt.InsertEdge(ev.U, ev.V)
}

// InsertEdge adds the undirected edge {u, v} and updates coreness
// exactly. It reports whether the edge was added; self-loops, negative
// endpoints, and already-present edges leave the graph unchanged.
func (mt *Maintainer) InsertEdge(u, v int) bool {
	if u < 0 || v < 0 || u == v {
		return false
	}
	mt.grow(max(u, v) + 1)
	if mt.HasEdge(u, v) {
		return false
	}
	mt.own(u, 1)
	mt.own(v, 1)
	insertSorted(&mt.adj[u], v)
	insertSorted(&mt.adj[v], u)
	mt.m++
	if mt.core[v] >= mt.core[u] {
		mt.supp[u]++
	}
	if mt.core[u] >= mt.core[v] {
		mt.supp[v]++
	}

	// Only nodes of coreness K = min(core(u), core(v)) connected to the
	// new edge through coreness-K nodes can rise, and only to K+1.
	// Candidate pruning (the purecore refinement): a node can rise — or
	// transmit a rise — only if more than K of its neighbors have
	// coreness >= K — its maintained support counter, read in O(1) — so
	// the traversal expands through qualifying nodes only and pays O(1),
	// not O(deg), per plateau node it merely sights. This keeps the walk
	// off the vast equal-coreness plateaus of skewed graphs.
	k := mt.core[u]
	if mt.core[v] < k {
		k = mt.core[v]
	}
	mt.stamp++
	mt.region = mt.region[:0]
	for _, root := range [2]int{u, v} {
		if mt.core[root] == k && mt.mark[root] != mt.stamp {
			mt.collectCandidates(root, k)
		}
	}

	// Localized peel at threshold K+1 over the candidate set: a
	// candidate's support counts neighbors that already sit above K plus
	// candidate neighbors that could rise with it. Nodes whose support
	// falls below K+1 keep coreness K; survivors rise to K+1.
	mt.queue = mt.queue[:0]
	for _, x := range mt.region {
		c := 0
		for _, y := range mt.adj[x] {
			if mt.core[y] > k || mt.cand[y] == mt.stamp {
				c++
			}
		}
		mt.cnt[x] = c
		if c < k+1 {
			mt.queue = append(mt.queue, x)
		}
	}
	const removed = -1
	for len(mt.queue) > 0 {
		x := mt.queue[len(mt.queue)-1]
		mt.queue = mt.queue[:len(mt.queue)-1]
		if mt.cnt[x] == removed {
			continue
		}
		mt.cnt[x] = removed
		for _, y := range mt.adj[x] {
			if mt.cand[y] == mt.stamp && mt.cnt[y] != removed {
				mt.cnt[y]--
				if mt.cnt[y] == k {
					mt.queue = append(mt.queue, y)
				}
			}
		}
	}
	for _, x := range mt.region {
		if mt.cnt[x] != removed {
			mt.core[x] = k + 1
		}
	}
	// Repair the support counters around the risers: each riser's own
	// support is recomputed at its new threshold (its neighbors' levels
	// are final by now), and every non-riser neighbor already sitting at
	// K+1 gains the riser's newly-counting contribution. Neighbors at or
	// below K are unaffected (the riser counted for them before and
	// still does), as are neighbors above K+1.
	for _, x := range mt.region {
		if mt.cnt[x] == removed {
			continue
		}
		c := 0
		for _, y := range mt.adj[x] {
			if mt.core[y] >= k+1 {
				c++
				if mt.core[y] == k+1 && !(mt.cand[y] == mt.stamp && mt.cnt[y] != removed) {
					mt.supp[y]++
				}
			}
		}
		mt.supp[x] = c
	}
	return true
}

// DeleteEdge removes the undirected edge {u, v} and updates coreness
// exactly. It reports whether the edge was present; deleting an absent
// edge — including self-loops, negative endpoints, and endpoints beyond
// the current node count — is a documented no-op returning false, never
// a panic, so deletions arriving ahead of (or instead of) their inserts
// cannot crash a replay.
func (mt *Maintainer) DeleteEdge(u, v int) bool {
	if !mt.HasEdge(u, v) || u == v {
		return false
	}
	k := mt.core[u]
	if mt.core[v] < k {
		k = mt.core[v]
	}
	mt.own(u, 0)
	mt.own(v, 0)
	removeSorted(&mt.adj[u], v)
	removeSorted(&mt.adj[v], u)
	mt.m--
	if mt.core[v] >= mt.core[u] {
		mt.supp[u]--
	}
	if mt.core[u] >= mt.core[v] {
		mt.supp[v]--
	}

	// Only nodes of coreness K can fall, by exactly one. Propagate
	// decreases outward from the endpoints: a coreness-K node falls when
	// its maintained support — neighbors retaining coreness >= K — sits
	// below K, an O(1) read, and each fall decrements its coreness-K
	// neighbors' counters in O(1). During the cascade support only
	// decreases, so a node enqueued deficient is still deficient when
	// popped; the adjacency is walked only for nodes that actually drop,
	// to decrement their neighbors and recompute their own support at
	// the new threshold.
	mt.queue = mt.queue[:0]
	for _, s := range [2]int{u, v} {
		if mt.core[s] == k && mt.supp[s] < k {
			mt.queue = append(mt.queue, s)
		}
	}
	for len(mt.queue) > 0 {
		x := mt.queue[len(mt.queue)-1]
		mt.queue = mt.queue[:len(mt.queue)-1]
		if mt.core[x] != k {
			continue // already dropped via another path
		}
		mt.core[x] = k - 1
		c := 0
		for _, y := range mt.adj[x] {
			if mt.core[y] >= k-1 {
				c++
			}
			if mt.core[y] == k {
				mt.supp[y]--
				if mt.supp[y] < k {
					mt.queue = append(mt.queue, y)
				}
			}
		}
		mt.supp[x] = c
	}
	return true
}

// collectCandidates gathers into mt.region the coreness-k nodes that
// could rise to k+1: those with more than k neighbors of coreness >= k —
// exactly supp[x] > k for a coreness-k node, read in O(1) from the
// maintained counter — reachable from root through such nodes. Every
// visited node is stamped in mark; candidates are additionally stamped
// in cand. A plateau node that merely gets sighted and disqualified now
// costs O(1) instead of an adjacency recount.
func (mt *Maintainer) collectCandidates(root, k int) {
	mt.touched = mt.touched[:0]
	mt.touched = append(mt.touched, root)
	mt.mark[root] = mt.stamp
	for len(mt.touched) > 0 {
		x := mt.touched[len(mt.touched)-1]
		mt.touched = mt.touched[:len(mt.touched)-1]
		if mt.supp[x] <= k {
			continue // cannot rise, cannot transmit a rise
		}
		mt.cand[x] = mt.stamp
		mt.region = append(mt.region, x)
		for _, y := range mt.adj[x] {
			if mt.core[y] == k && mt.mark[y] != mt.stamp {
				mt.mark[y] = mt.stamp
				mt.touched = append(mt.touched, y)
			}
		}
	}
}

// grow extends the node set to at least n isolated nodes.
func (mt *Maintainer) grow(n int) {
	for len(mt.core) < n {
		mt.adj = append(mt.adj, nil)
		mt.core = append(mt.core, 0)
		mt.supp = append(mt.supp, 0)
		mt.owner = append(mt.owner, mt.gen)
		mt.mark = append(mt.mark, 0)
		mt.cand = append(mt.cand, 0)
		mt.cnt = append(mt.cnt, 0)
	}
}

func insertSorted(xs *[]int, x int) {
	s := *xs
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	*xs = s
}

func removeSorted(xs *[]int, x int) {
	s := *xs
	i := sort.SearchInts(s, x)
	*xs = append(s[:i], s[i+1:]...)
}
