package dkcore

// White-box tests for the writer's batch absorption: per-op results must
// match a sequential replay exactly even when coalescing cancels an
// insert+delete pair, and node-growing ops must take the literal path so
// the published node count matches sequential semantics.

import (
	"testing"

	"dkcore/internal/graph"
	"dkcore/internal/stream"
)

func absorbSession(mt *stream.Maintainer) *Session {
	s := &Session{
		maxBatch: 64,
		pending:  make(map[edgeKey]edgeState),
	}
	s.cur.Store(newEpoch(1, mt))
	return s
}

// frameOp wraps events as one ApplyEvents chunk, with room for results.
func frameOp(events ...stream.Event) sessionOp {
	return sessionOp{evs: events, out: make([]bool, len(events))}
}

func TestAbsorbCoalescesWithExactResults(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	mt := stream.NewMaintainer(b.Build())
	s := absorbSession(mt)

	ins := func(u, v int) stream.Event { return stream.Event{Op: stream.OpInsert, U: u, V: v} }
	del := func(u, v int) stream.Event { return stream.Event{Op: stream.OpDelete, U: u, V: v} }
	batch := []sessionOp{
		frameOp(
			ins(0, 2),  // absent -> true, present
			del(2, 0),  // present (normalized key) -> true, absent
			ins(0, 2),  // absent again -> true: net insert survives
			del(0, 1),  // base edge -> true: net delete
			ins(0, 1),  // just deleted -> true: cancels to no net op
			ins(0, 0),  // self-loop -> false
			del(-1, 3), // negative -> false
			ins(9, 5),  // grows node set: literal path -> true
			del(5, 9),  // literal path -> true; nodes must stay grown
		),
		{flush: true},
		frameOp(
			del(3, 0), // never present -> false
			ins(1, 2), // duplicate of base edge -> false
		),
		{ev: ins(12, 1)}, // enqueued, no result: grows the node set
	}
	want := [][]bool{{true, true, true, true, true, false, false, true, true}, nil, {false, false}, nil}
	s.absorb(mt, batch)
	for i, op := range batch {
		for j := range want[i] {
			if op.out[j] != want[i][j] {
				t.Fatalf("op %d event %d: result %v, want %v", i, j, op.out[j], want[i][j])
			}
		}
	}

	// Net state: {0,1} reinserted (cancelled), {0,2} present, {5,9}
	// inserted then deleted but the node set stays grown to 13.
	if !mt.HasEdge(0, 1) || !mt.HasEdge(0, 2) || mt.HasEdge(5, 9) {
		t.Fatalf("net edge state wrong: 01=%v 02=%v 59=%v",
			mt.HasEdge(0, 1), mt.HasEdge(0, 2), mt.HasEdge(5, 9))
	}
	if mt.NumNodes() != 13 {
		t.Fatalf("node set %d, want 13 (literal growth preserved)", mt.NumNodes())
	}

	// Exactly one epoch published for the whole batch, reflecting the
	// final state.
	ep := s.CurrentEpoch()
	if ep.Seq() != 2 {
		t.Fatalf("epoch seq %d, want 2", ep.Seq())
	}
	if ep.NumNodes() != 13 || ep.NumEdges() != mt.NumEdges() {
		t.Fatalf("epoch shape %d/%d, want %d/%d", ep.NumNodes(), ep.NumEdges(), 13, mt.NumEdges())
	}
	if s.batches.Load() != 1 {
		t.Fatalf("batches %d, want 1", s.batches.Load())
	}
}

// TestAbsorbNoChangeSkipsPublish: a batch of pure no-ops (duplicate
// inserts, absent deletes, cancelled pairs on existing nodes) publishes
// no epoch at all.
func TestAbsorbNoChangeSkipsPublish(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	mt := stream.NewMaintainer(b.Build())
	s := absorbSession(mt)

	op := frameOp(
		stream.Event{Op: stream.OpInsert, U: 0, V: 1}, // duplicate
		stream.Event{Op: stream.OpDelete, U: 1, V: 2}, // absent
		stream.Event{Op: stream.OpInsert, U: 0, V: 2}, // insert...
		stream.Event{Op: stream.OpDelete, U: 0, V: 2}, // ...cancelled
	)
	want := []bool{false, false, true, true}
	s.absorb(mt, []sessionOp{op})
	for i := range want {
		if op.out[i] != want[i] {
			t.Fatalf("event %d: result %v, want %v", i, op.out[i], want[i])
		}
	}
	if seq := s.CurrentEpoch().Seq(); seq != 1 {
		t.Fatalf("no-op batch published epoch %d", seq)
	}
	if mt.HasEdge(0, 2) || !mt.HasEdge(0, 1) {
		t.Fatalf("no-op batch changed the graph")
	}
}
