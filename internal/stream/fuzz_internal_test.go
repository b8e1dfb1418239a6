package stream

import (
	"testing"

	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

// fuzzMaxNode bounds the node IDs fuzz events mention. It exceeds the
// largest seed graph, so inserts regularly grow the node set.
const fuzzMaxNode = 20

// fuzzViews bounds how many Frozen views one input keeps alive at once.
const fuzzViews = 4

// frozenRecord is a Frozen view together with the edge set it had when
// taken, built independently of the Maintainer's lists.
type frozenRecord struct {
	view Frozen
	want *graph.Graph
	at   int // event index after which the view was taken
}

// FuzzMaintainerDifferential is the differential net under the streaming
// maintainer. The input decodes to a small seed graph (byte 0: node
// count, byte 1: edge count, byte 2: seed) and then 3-byte events
// (op flags, u, v): bit 0 of the flags picks delete over insert, bit 1
// takes a Frozen view after the event. After every event the Maintainer
// must agree with a reference edge set (and with its own Apply result),
// its coreness must equal a fresh Batagelj–Zaversnik peel of its graph,
// its support counters must be exact, and every live Frozen view must
// still hold exactly the edge set recorded when it was taken — the
// check on the copy-on-write ownership stamps.
func FuzzMaintainerDifferential(f *testing.F) {
	f.Add([]byte{6, 9, 1, 0, 0, 5, 2, 1, 2, 1, 1, 2, 0, 1, 19, 3, 3, 0})
	f.Add([]byte{8, 20, 7, 1, 0, 1, 2, 0, 1, 1, 2, 3, 0, 2, 3, 3, 0, 2})
	f.Add([]byte{10, 45, 3, 3, 0, 1, 1, 1, 2, 2, 0, 1, 0, 11, 12, 2, 12, 13, 0, 11, 13, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n0 := int(data[0]) % 11
		m0 := int(data[1]) % (n0*(n0-1)/2 + 1)
		mt := NewMaintainer(randomGraph(n0, m0, int64(data[2])))
		ref := make(map[[2]int]bool)
		mt.Graph().Edges(func(u, v int) bool { ref[[2]int{u, v}] = true; return true })
		refN := n0

		var views []frozenRecord
		for i, rest := 0, data[3:]; len(rest) >= 3; i, rest = i+1, rest[3:] {
			flags := rest[0]
			u, v := int(rest[1])%fuzzMaxNode, int(rest[2])%fuzzMaxNode
			ev := Event{Op: OpInsert, U: u, V: v}
			if flags&1 == 1 {
				ev.Op = OpDelete
			}
			key := [2]int{min(u, v), max(u, v)}
			wantChange := u != v && ref[key] == (ev.Op == OpDelete)
			if got := mt.Apply(ev); got != wantChange {
				t.Fatalf("event %d %+v: Apply = %v, want %v", i, ev, got, wantChange)
			}
			if wantChange {
				if ev.Op == OpInsert {
					ref[key] = true
					refN = max(refN, key[1]+1)
				} else {
					delete(ref, key)
				}
			}

			want := refGraph(refN, ref)
			g := mt.Graph()
			if !g.Equal(want) {
				t.Fatalf("event %d: graph has %d nodes %d edges, reference %d/%d",
					i, g.NumNodes(), g.NumEdges(), want.NumNodes(), want.NumEdges())
			}
			if mt.NumEdges() != want.NumEdges() {
				t.Fatalf("event %d: NumEdges %d, reference %d", i, mt.NumEdges(), want.NumEdges())
			}
			for u, k := range kcore.Decompose(g).CorenessValues() {
				if got := mt.Coreness(u); got != k {
					t.Fatalf("event %d: node %d coreness %d, want %d", i, u, got, k)
				}
			}
			if err := supportMismatch(mt); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}

			if flags&2 != 0 {
				if len(views) == fuzzViews {
					views = views[1:]
				}
				views = append(views, frozenRecord{view: mt.Freeze(), want: want, at: i})
			}
			for _, r := range views {
				checkFrozen(t, r, i)
			}
		}
	})
}

// refGraph builds the reference edge set as a Graph through a Builder,
// sharing nothing with the Maintainer's lists.
func refGraph(n int, edges map[[2]int]bool) *graph.Graph {
	b := graph.NewBuilder(n)
	for e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// checkFrozen asserts that view r still holds the edge set recorded when
// it was taken, through every read method.
func checkFrozen(t *testing.T, r frozenRecord, event int) {
	t.Helper()
	f, want := r.view, r.want
	if f.NumNodes() != want.NumNodes() || f.NumEdges() != want.NumEdges() {
		t.Fatalf("event %d: view from event %d has %d nodes %d edges, recorded %d/%d",
			event, r.at, f.NumNodes(), f.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	if !f.Graph().Equal(want) {
		t.Fatalf("event %d: view from event %d changed its edge set", event, r.at)
	}
	for u := -1; u <= fuzzMaxNode; u++ {
		for v := -1; v <= fuzzMaxNode; v++ {
			if got := f.HasEdge(u, v); got != want.HasEdge(u, v) {
				t.Fatalf("event %d: view from event %d: HasEdge(%d, %d) = %v, recorded %v",
					event, r.at, u, v, got, want.HasEdge(u, v))
			}
		}
	}
}
