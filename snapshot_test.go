// The epoch-snapshot verification harness: snapshot consistency (every
// published epoch equals the exact coreness of some prefix of the
// applied event sequence — no torn reads), epoch monotonicity (a client
// that observed epoch N never observes an earlier one from the same
// handle), lock-free reads (zero allocations, never blocked behind a
// deletion cascade), queue backpressure, and close semantics. Run under
// -race; these tests are the regression net for the Session's
// atomic.Pointer epoch swap and single-writer mutation queue.
package dkcore_test

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"dkcore"
)

// cycleGraph builds the n-cycle: every node has coreness 2, and deleting
// one edge cascades the whole cycle down to a coreness-1 path — the
// worst-case mutation the lock-free read path must never block behind.
func cycleGraph(n int) *dkcore.Graph {
	b := dkcore.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n)
	}
	return b.Build()
}

// stateKey encodes a decomposition state (node count, edge count, the
// full edge set, the full coreness array) as a map key, so observed
// epochs can be matched exactly against replayed prefix states with no
// hash-collision risk. The edge set is part of the key because an
// epoch's graph is built lazily: a key of counts and coreness alone
// cannot tell a correct graph from one that picked up later edges.
func stateKey(g *dkcore.Graph, coreness []int) string {
	buf := make([]byte, 0, 8*(len(coreness)+2*g.NumEdges()+2))
	buf = binary.AppendVarint(buf, int64(g.NumNodes()))
	buf = binary.AppendVarint(buf, int64(g.NumEdges()))
	g.Edges(func(u, v int) bool {
		buf = binary.AppendVarint(buf, int64(u))
		buf = binary.AppendVarint(buf, int64(v))
		return true
	})
	for _, c := range coreness {
		buf = binary.AppendVarint(buf, int64(c))
	}
	return string(buf)
}

func epochKey(ep *dkcore.Epoch) string {
	return stateKey(ep.Graph(), ep.CorenessValues())
}

func maintainerKey(mt *dkcore.Maintainer) string {
	return stateKey(mt.Graph(), mt.CorenessValues())
}

// prefixStates replays events sequentially through a Maintainer and
// returns the set of all prefix states (including the empty prefix),
// keyed by stateKey.
func prefixStates(g *dkcore.Graph, events []dkcore.EdgeEvent) map[string]bool {
	mt := dkcore.NewMaintainer(g)
	states := map[string]bool{maintainerKey(mt): true}
	for _, ev := range events {
		mt.Apply(ev)
		states[maintainerKey(mt)] = true
	}
	return states
}

// checkPrefixEpoch is the deferred half of the prefix rule, run on an
// epoch a reader kept while later mutations landed: the epoch — its
// lazily built graph included — must still be the state of some prefix,
// HasEdge must agree with that graph on every edge an event mentions,
// and its coreness must satisfy Theorem 1's locality on its own graph.
func checkPrefixEpoch(t *testing.T, ep *dkcore.Epoch, prefixes map[string]bool, events []dkcore.EdgeEvent) {
	t.Helper()
	for _, ev := range events {
		if got, want := ep.HasEdge(ev.U, ev.V), ep.Graph().HasEdge(ev.U, ev.V); got != want {
			t.Errorf("epoch %d: HasEdge(%d, %d) = %v, its graph says %v", ep.Seq(), ev.U, ev.V, got, want)
		}
	}
	if !prefixes[epochKey(ep)] {
		t.Errorf("epoch %d state matches no prefix of the applied sequence", ep.Seq())
	}
	if err := dkcore.VerifyLocality(ep.Graph(), ep.CorenessValues()); err != nil {
		t.Errorf("epoch %d: %v", ep.Seq(), err)
	}
	checkEpochInvariants(t, ep)
}

// checkEpochInvariants verifies the internal consistency every epoch
// must have regardless of timing: degeneracy equals the coreness
// maximum, and the edge-set snapshot agrees with the coreness array's
// node count.
func checkEpochInvariants(t *testing.T, ep *dkcore.Epoch) {
	t.Helper()
	maxK := 0
	vals := ep.CorenessValues()
	for _, k := range vals {
		if k > maxK {
			maxK = k
		}
	}
	if ep.Degeneracy() != maxK {
		t.Errorf("epoch %d: degeneracy %d, coreness max %d", ep.Seq(), ep.Degeneracy(), maxK)
	}
	if ep.Graph().NumNodes() != ep.NumNodes() || ep.Graph().NumEdges() != ep.NumEdges() {
		t.Errorf("epoch %d: graph %d/%d vs epoch %d/%d", ep.Seq(),
			ep.Graph().NumNodes(), ep.Graph().NumEdges(), ep.NumNodes(), ep.NumEdges())
	}
}

// TestSnapshotConsistencyPrefixRule is the snapshot-consistency checker:
// one goroutine applies a known event sequence while concurrent readers
// grab epochs; every observed epoch state — edge set included — must
// equal the exact decomposition of some prefix of that sequence, and
// epoch sequence numbers must be monotone per reader. Readers keep the
// epochs they observe and read their edge sets only after at least two
// newer epochs are out, so a lazily built graph that leaked later
// mutations fails the prefix match. All ingest paths are covered — the
// blocking mutators (every prefix is published), the Enqueue path (the
// writer batches and coalesces, so published states are batch
// boundaries, still prefixes) and ApplyEvents frames.
func TestSnapshotConsistencyPrefixRule(t *testing.T) {
	const frame = 7
	for _, mode := range []string{"blocking", "enqueue", "frames"} {
		t.Run(mode, func(t *testing.T) {
			g := dkcore.GenerateBarabasiAlbert(150, 3, 17)
			events := dkcore.GenerateChurnEvents(g, 500, 0.45, 29)
			prefixes := prefixStates(g, events)

			sess, err := dkcore.NewSession(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var lastSeq uint64
					var kept []*dkcore.Epoch // observed, edge set not yet read
					for {
						select {
						case <-stop:
							for _, ep := range kept {
								checkPrefixEpoch(t, ep, prefixes, events)
							}
							return
						default:
						}
						ep := sess.CurrentEpoch()
						if ep.Seq() < lastSeq {
							t.Errorf("epoch went backwards: %d after %d", ep.Seq(), lastSeq)
							return
						}
						if ep.Seq() > lastSeq {
							kept = append(kept, ep)
						}
						lastSeq = ep.Seq()
						for len(kept) > 0 && kept[0].Seq()+2 <= ep.Seq() {
							checkPrefixEpoch(t, kept[0], prefixes, events)
							kept = kept[1:]
						}
					}
				}()
			}

			for i, ev := range events {
				switch mode {
				case "blocking":
					sess.ApplyEvent(ev)
				case "frames":
					if i%frame == 0 {
						if _, err := sess.ApplyEvents(context.Background(), events[i:min(i+frame, len(events))]); err != nil {
							t.Fatal(err)
						}
					}
				default:
					for {
						err := sess.Enqueue(ev)
						if err == nil {
							break
						}
						if !errors.Is(err, dkcore.ErrQueueFull) {
							t.Fatal(err)
						}
					}
				}
			}
			if err := sess.Flush(); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()

			// The final epoch is the full-sequence prefix exactly.
			final := sess.CurrentEpoch()
			mt := dkcore.NewMaintainer(g)
			for _, ev := range events {
				mt.Apply(ev)
			}
			if epochKey(final) != maintainerKey(mt) {
				t.Fatalf("final epoch state differs from sequential replay")
			}
		})
	}
}

// TestEpochMonotonicity is the property test for the atomic.Pointer swap
// ordering: across a randomized mix of blocking and enqueued mutations
// from several writers, no reader may ever observe the epoch sequence
// number decrease, and Stats' applied counter must never exceed its
// enqueued counter from a reader's point of view.
func TestEpochMonotonicity(t *testing.T) {
	g := dkcore.GenerateGNM(120, 420, 7)
	sess, err := dkcore.NewSession(context.Background(), g, dkcore.QueueSize(64), dkcore.MaxBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if seq := sess.CurrentEpoch().Seq(); seq < lastSeq {
					t.Errorf("epoch regressed: observed %d after %d", seq, lastSeq)
					return
				} else {
					lastSeq = seq
				}
				if st := sess.Stats(); st.Epoch < lastSeq {
					t.Errorf("Stats epoch %d behind observed %d", st.Epoch, lastSeq)
					return
				}
			}
		}()
	}

	var mwg sync.WaitGroup
	for w := 0; w < 3; w++ {
		mwg.Add(1)
		go func(w int) {
			defer mwg.Done()
			events := dkcore.GenerateChurnEvents(g, 300, 0.4, int64(100+w))
			for i, ev := range events {
				if i%2 == w%2 {
					sess.ApplyEvent(ev)
				} else if err := sess.Enqueue(ev); errors.Is(err, dkcore.ErrQueueFull) {
					sess.ApplyEvent(ev)
				}
			}
		}(w)
	}
	mwg.Wait()
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// TestSessionConcurrentMutatorsRace is the end-to-end regression net for
// the epoch refactor: concurrent InsertEdge/DeleteEdge/ApplyEvent
// writers race every read method, and because each writer mutates a
// disjoint node block, the final state is verified exactly against a
// sequential replay. Run under -race.
func TestSessionConcurrentMutatorsRace(t *testing.T) {
	const writers, blockSize, opsPerWriter = 3, 40, 200
	g := dkcore.GenerateBarabasiAlbert(120, 3, 11)
	base := g.NumNodes()

	// Per-writer event streams over disjoint fresh node blocks, so any
	// interleaving of the writers yields the same final edge set.
	streams := make([][]dkcore.EdgeEvent, writers)
	for w := range streams {
		lo := base + w*blockSize
		evs := make([]dkcore.EdgeEvent, 0, opsPerWriter)
		for i := 0; i < opsPerWriter; i++ {
			u := lo + (i*7)%blockSize
			v := lo + (i*13+1)%blockSize
			op := dkcore.EdgeInsert
			if i%3 == 2 {
				op = dkcore.EdgeDelete
			}
			evs = append(evs, dkcore.EdgeEvent{Op: op, U: u, V: v})
		}
		streams[w] = evs
	}

	sess, err := dkcore.NewSession(context.Background(), g, dkcore.MaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			u := r
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Exercise every read method; sanity-check what is
				// timing-independent.
				n := sess.NumNodes()
				if n < base {
					t.Errorf("node count shrank to %d", n)
					return
				}
				if k := sess.Coreness(u % n); k < 0 {
					t.Errorf("negative coreness %d", k)
					return
				}
				if sess.Degeneracy() < 1 {
					t.Errorf("degeneracy below 1 on a graph with edges")
					return
				}
				if sess.NumEdges() < 0 {
					t.Errorf("negative edge count")
					return
				}
				sess.CorenessValues()
				sess.KCoreMembers(2)
				sess.HasEdge(0, 1)
				if snap := sess.Snapshot(); snap.NumNodes() < base {
					t.Errorf("snapshot lost base nodes: %d", snap.NumNodes())
					return
				}
				checkEpochInvariants(t, sess.CurrentEpoch())
				u++
			}
		}(r)
	}

	var mwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		mwg.Add(1)
		go func(w int) {
			defer mwg.Done()
			for i, ev := range streams[w] {
				switch i % 3 {
				case 0:
					sess.ApplyEvent(ev)
				case 1:
					if ev.Op == dkcore.EdgeInsert {
						sess.InsertEdge(ev.U, ev.V)
					} else {
						sess.DeleteEdge(ev.U, ev.V)
					}
				default:
					if err := sess.Enqueue(ev); errors.Is(err, dkcore.ErrQueueFull) {
						sess.ApplyEvent(ev)
					}
				}
			}
		}(w)
	}
	mwg.Wait()
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Sequential replay, writer by writer (blocks are disjoint, so any
	// interleaving reaches this state), must match the session exactly.
	mt := dkcore.NewMaintainer(g)
	for _, evs := range streams {
		for _, ev := range evs {
			mt.Apply(ev)
		}
	}
	if got, want := epochKey(sess.CurrentEpoch()), maintainerKey(mt); got != want {
		t.Fatalf("final session state differs from sequential replay")
	}
}

// TestSessionSnapshotAliasing: mutating the Graph returned by Snapshot
// must not corrupt the live session or other snapshots — the same
// hazard class as the PR 4 partition-view bug.
func TestSessionSnapshotAliasing(t *testing.T) {
	g := dkcore.GenerateBarabasiAlbert(80, 3, 3)
	sess, err := dkcore.NewSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	truth := dkcore.Decompose(g).CorenessValues()

	snap, other := sess.Snapshot(), sess.Snapshot()
	// Scribble over every adjacency cell of the first snapshot.
	for u := 0; u < snap.NumNodes(); u++ {
		ns := snap.Neighbors(u)
		for i := range ns {
			ns[i] = 0
		}
	}
	if !other.Equal(sess.CurrentEpoch().Graph()) {
		t.Fatalf("mutating one snapshot corrupted a sibling snapshot")
	}
	for u, k := range truth {
		if sess.Coreness(u) != k {
			t.Fatalf("node %d: coreness %d after snapshot scribble, want %d", u, sess.Coreness(u), k)
		}
	}
	// The session keeps mutating exactly from uncorrupted state.
	sess.InsertEdge(0, g.NumNodes()-1)
	want := dkcore.Decompose(sess.Snapshot()).CorenessValues()
	got := sess.CorenessValues()
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("after post-scribble insert, node %d: coreness %d, want %d", u, got[u], want[u])
		}
	}
}

// TestSteadyStateReadAllocs: the lock-free read path allocates nothing —
// Coreness, Degeneracy, NumNodes, NumEdges, HasEdge, and CurrentEpoch
// are one atomic load plus O(1) (or O(log deg)) work on the frozen
// epoch.
func TestSteadyStateReadAllocs(t *testing.T) {
	g := dkcore.GenerateBarabasiAlbert(200, 3, 5)
	sess, err := dkcore.NewSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sink := 0
	allocs := testing.AllocsPerRun(500, func() {
		sink += sess.Coreness(7)
		sink += sess.Degeneracy()
		sink += sess.NumNodes()
		sink += sess.NumEdges()
		if sess.HasEdge(0, 1) {
			sink++
		}
		sink += int(sess.CurrentEpoch().Seq())
	})
	if sink < 0 {
		t.Fatal("impossible")
	}
	if allocs != 0 {
		t.Fatalf("lock-free read path allocated %.1f times per run, want 0", allocs)
	}
}

// TestReadsDuringDeletionCascade: while the writer absorbs a whole-graph
// deletion cascade, reads keep completing against the previous epoch and
// never observe a torn state — on the n-cycle, every read is uniformly
// coreness 2 (pre-delete) or uniformly 1 (post-cascade), nothing in
// between.
func TestReadsDuringDeletionCascade(t *testing.T) {
	const n = 40000
	sess, err := dkcore.NewSession(context.Background(), cycleGraph(n))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	go sess.DeleteEdge(0, 1) // cascades all n nodes from 2 to 1

	reads, level := 0, 0
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		vals := sess.CorenessValues()
		level = vals[0]
		if level != 1 && level != 2 {
			t.Fatalf("coreness %d on a cycle/path", level)
		}
		for u, k := range vals {
			if k != level {
				t.Fatalf("torn read: node %d at %d while node 0 at %d", u, k, level)
			}
		}
		reads++
		if level == 1 {
			break
		}
	}
	if level != 1 {
		t.Fatalf("cascade never published (last level %d after %d reads)", level, reads)
	}
	if reads == 0 {
		t.Fatalf("no reads completed during the cascade window")
	}
}

// TestSessionBackpressure: with the writer busy inside a long deletion
// cascade, a bounded queue fills and Enqueue reports ErrQueueFull; the
// blocking path still gets through, and Flush drains everything to the
// exact final state.
func TestSessionBackpressure(t *testing.T) {
	const n = 40000
	sess, err := dkcore.NewSession(context.Background(), cycleGraph(n), dkcore.QueueSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if err := sess.Enqueue(dkcore.EdgeEvent{Op: dkcore.EdgeDelete, U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	sawFull := false
	for i := 0; i < 2_000_000 && !sawFull; i++ {
		err := sess.Enqueue(dkcore.EdgeEvent{Op: dkcore.EdgeInsert, U: 2, V: 3}) // already present: no-op
		switch {
		case err == nil:
		case errors.Is(err, dkcore.ErrQueueFull):
			sawFull = true
		default:
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatalf("queue of size 2 never reported ErrQueueFull while the writer cascaded %d nodes", n)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sess.Coreness(n / 2); got != 1 {
		t.Fatalf("after cascade drain, coreness %d, want 1", got)
	}
	st := sess.Stats()
	if st.Applied != st.Enqueued || st.EpochLag() != 0 {
		t.Fatalf("after Flush, stats not drained: %+v (lag %d)", st, st.EpochLag())
	}
}

// TestSessionClose: a closed session refuses mutations but serves reads
// from its final epoch forever; Close is idempotent.
func TestSessionClose(t *testing.T) {
	g := dkcore.GenerateGNM(60, 200, 9)
	sess, err := dkcore.NewSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	sess.InsertEdge(0, 59)
	want := sess.CorenessValues()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if sess.InsertEdge(1, 58) || sess.DeleteEdge(0, 59) || sess.ApplyEvent(dkcore.EdgeEvent{U: 2, V: 57}) {
		t.Fatalf("mutation accepted after Close")
	}
	if err := sess.Enqueue(dkcore.EdgeEvent{U: 2, V: 57}); !errors.Is(err, dkcore.ErrSessionClosed) {
		t.Fatalf("Enqueue after Close: %v, want ErrSessionClosed", err)
	}
	if err := sess.Flush(); !errors.Is(err, dkcore.ErrSessionClosed) {
		t.Fatalf("Flush after Close: %v, want ErrSessionClosed", err)
	}
	got := sess.CorenessValues()
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("reads changed after Close at node %d", u)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
