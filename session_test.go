package dkcore_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"dkcore"
)

func TestSessionQueriesAndMutations(t *testing.T) {
	g := dkcore.GenerateBarabasiAlbert(120, 3, 11)
	sess, err := dkcore.NewSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep := sess.InitialReport(); rep == nil || rep.Kind != dkcore.Sequential {
		t.Fatalf("initial report = %+v", rep)
	}
	if sess.NumNodes() != g.NumNodes() || sess.NumEdges() != g.NumEdges() {
		t.Fatalf("session shape %d/%d, want %d/%d",
			sess.NumNodes(), sess.NumEdges(), g.NumNodes(), g.NumEdges())
	}

	truth := dkcore.Decompose(g).CorenessValues()
	for u, k := range truth {
		if sess.Coreness(u) != k {
			t.Fatalf("node %d: coreness %d, want %d", u, sess.Coreness(u), k)
		}
	}

	// Degeneracy and k-core membership agree with the coreness array.
	d := sess.Degeneracy()
	maxK := 0
	for _, k := range truth {
		if k > maxK {
			maxK = k
		}
	}
	if d != maxK {
		t.Fatalf("degeneracy %d, want %d", d, maxK)
	}
	members := sess.KCoreMembers(d)
	if len(members) == 0 {
		t.Fatalf("empty %d-core", d)
	}
	for _, u := range members {
		if truth[u] < d {
			t.Fatalf("node %d in %d-core has coreness %d", u, d, truth[u])
		}
	}
	if got := len(sess.KCoreMembers(0)); got != g.NumNodes() {
		t.Fatalf("0-core has %d members, want all %d", got, g.NumNodes())
	}

	// Mutations stay exact: apply churn, compare against a recompute of
	// the materialized snapshot.
	for _, ev := range dkcore.GenerateChurnEvents(g, 60, 0.4, 7) {
		sess.ApplyEvent(ev)
	}
	snap := sess.Snapshot()
	want := dkcore.Decompose(snap).CorenessValues()
	got := sess.CorenessValues()
	if len(got) != len(want) {
		t.Fatalf("coreness length %d, want %d", len(got), len(want))
	}
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("after churn, node %d: coreness %d, want %d", u, got[u], want[u])
		}
	}

	// Edge-level mutations report presence correctly.
	if sess.InsertEdge(0, 0) {
		t.Fatalf("self-loop accepted")
	}
	n := sess.NumNodes()
	if !sess.InsertEdge(n, n+1) {
		t.Fatalf("node-growing insert rejected")
	}
	if !sess.HasEdge(n, n+1) || sess.Coreness(n) != 1 {
		t.Fatalf("grown edge not reflected")
	}
	if !sess.DeleteEdge(n, n+1) || sess.HasEdge(n, n+1) {
		t.Fatalf("delete not reflected")
	}
}

// TestSessionFromEveryEngineKind: the serving story composes with any
// engine — decompose once with kind K, then maintain incrementally.
func TestSessionFromEveryEngineKind(t *testing.T) {
	g := dkcore.GenerateGNM(90, 360, 3)
	truth := dkcore.Decompose(g).CorenessValues()
	for _, kind := range dkcore.EngineKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			eng, err := dkcore.NewEngine(kind, engineOptsFor(kind)...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := eng.NewSession(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if sess.InitialReport().Kind != kind {
				t.Fatalf("initial report kind %v, want %v", sess.InitialReport().Kind, kind)
			}
			for u, k := range truth {
				if sess.Coreness(u) != k {
					t.Fatalf("node %d: coreness %d, want %d", u, sess.Coreness(u), k)
				}
			}
			// One mutation keeps the session exact from any seed engine.
			sess.InsertEdge(0, g.NumNodes()-1)
			want := dkcore.Decompose(sess.Snapshot()).CorenessValues()
			for u := range want {
				if sess.Coreness(u) != want[u] {
					t.Fatalf("after insert, node %d: coreness %d, want %d", u, sess.Coreness(u), want[u])
				}
			}
		})
	}
}

// TestSessionConcurrentAccess hammers a Session with concurrent readers
// while a writer streams churn — the serving pattern the read lock
// exists for. Run under -race.
func TestSessionConcurrentAccess(t *testing.T) {
	g := dkcore.GenerateBarabasiAlbert(200, 3, 19)
	sess, err := dkcore.NewSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	events := dkcore.GenerateChurnEvents(g, 300, 0.4, 23)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
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
				if k := sess.Coreness(u % sess.NumNodes()); k < 0 {
					t.Errorf("negative coreness %d", k)
					return
				}
				if d := sess.Degeneracy(); d < 0 {
					t.Errorf("negative degeneracy %d", d)
					return
				}
				sess.KCoreMembers(2)
				u++
			}
		}(r)
	}
	for _, ev := range events {
		sess.ApplyEvent(ev)
	}
	close(stop)
	wg.Wait()

	want := dkcore.Decompose(sess.Snapshot()).CorenessValues()
	got := sess.CorenessValues()
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("after concurrent churn, node %d: coreness %d, want %d", u, got[u], want[u])
		}
	}
}

// replayResults applies events to a fresh Maintainer over g one by one
// and returns each event's result: what ApplyEvent reports in sequence.
func replayResults(g *dkcore.Graph, events []dkcore.EdgeEvent) []bool {
	mt := dkcore.NewMaintainer(g)
	out := make([]bool, len(events))
	for i, ev := range events {
		out[i] = mt.Apply(ev)
	}
	return out
}

// TestSessionApplyEventsFrame: a frame of at most MaxBatch events is one
// submission, published as exactly one epoch on an idle session, with
// every per-event result what a sequential replay returns — duplicate
// inserts, an insert+delete flap, invalid events and node growth
// included. A larger frame is split into MaxBatch-sized epochs with
// results still exact.
func TestSessionApplyEventsFrame(t *testing.T) {
	ctx := context.Background()
	g := dkcore.GenerateGNM(50, 120, 4)
	var u, v int
	for u, v = 0, 1; g.HasEdge(u, v); v++ {
	}
	frame := []dkcore.EdgeEvent{
		{Op: dkcore.EdgeInsert, U: u, V: v},
		{Op: dkcore.EdgeInsert, U: v, V: u}, // duplicate: not a change
		{Op: dkcore.EdgeDelete, U: u, V: v},
		{Op: dkcore.EdgeInsert, U: 3, V: 3},  // self-loop
		{Op: dkcore.EdgeInsert, U: 2, V: 60}, // grows the node set
		{Op: dkcore.EdgeDelete, U: 7, V: 61}, // absent
	}
	frame = append(frame, dkcore.GenerateChurnEvents(g, 10, 0.5, 9)...)
	want := replayResults(g, frame)

	sess, err := dkcore.NewSession(ctx, g, dkcore.MaxBatch(len(frame)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	before := sess.Stats()
	got, err := sess.ApplyEvents(ctx, frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d %+v: result %v, sequential replay %v", i, frame[i], got[i], want[i])
		}
	}
	after := sess.Stats()
	if d := after.Batches - before.Batches; d != 1 {
		t.Fatalf("frame of %d events published %d epochs, want 1", len(frame), d)
	}
	if after.Applied-before.Applied != int64(len(frame)) || after.EpochLag() != 0 {
		t.Fatalf("stats after frame: %+v", after)
	}

	// A frame over MaxBatch: chunked, results still exact.
	small, err := dkcore.NewSession(ctx, g, dkcore.MaxBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	got, err = small.ApplyEvents(ctx, frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunked: event %d: result %v, sequential replay %v", i, got[i], want[i])
		}
	}
	if b := small.Stats().Batches; b > int64((len(frame)+3)/4) {
		t.Fatalf("chunked frame published %d epochs, more than its %d chunks", b, (len(frame)+3)/4)
	}
	if empty, err := small.ApplyEvents(ctx, nil); err != nil || len(empty) != 0 {
		t.Fatalf("empty frame: %v, %v", empty, err)
	}
}

// TestSessionApplyEventsCancelAndClose: a cancelled context either loses
// the race to a ready queue (the frame applies, results exact) or
// returns context.Canceled with the enqueued counter rolled back; a
// closed session returns ErrSessionClosed.
func TestSessionApplyEventsCancelAndClose(t *testing.T) {
	g := dkcore.GenerateGNM(40, 100, 6)
	sess, err := dkcore.NewSession(context.Background(), g, dkcore.MaxBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	frame := []dkcore.EdgeEvent{{U: 0, V: 39}, {Op: dkcore.EdgeDelete, U: 0, V: 39}, {U: 1, V: 38}}
	for i := 0; i < 50; i++ {
		got, err := sess.ApplyEvents(cancelled, frame)
		switch {
		case errors.Is(err, context.Canceled):
		case err != nil:
			t.Fatalf("cancelled frame: %v", err)
		case len(got) != len(frame):
			t.Fatalf("cancelled frame succeeded with %d results", len(got))
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Enqueued != st.Applied {
		t.Fatalf("after Flush: enqueued %d, applied %d", st.Enqueued, st.Applied)
	}
	if err := dkcore.VerifyLocality(sess.Snapshot(), sess.CorenessValues()); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if got, err := sess.ApplyEvents(context.Background(), frame); !errors.Is(err, dkcore.ErrSessionClosed) || got != nil {
		t.Fatalf("ApplyEvents after Close: %v, %v; want ErrSessionClosed", got, err)
	}
}
