package dkcore

// This file is the epoch-snapshot layer beneath Session: an immutable
// Epoch per absorbed mutation batch, swapped in through an atomic
// pointer, plus the single-writer queue that absorbs mutations with
// batching and coalescing. Reads never take a lock: they grab the
// current Epoch with one atomic load and answer everything from that
// frozen view, so a deletion cascade in the writer can never stall the
// read path.

import (
	"errors"
	"sync"

	"dkcore/internal/stream"
)

// ErrQueueFull is returned by Session.Enqueue when the bounded mutation
// queue is full — the backpressure signal for callers that must not
// block. Callers that prefer blocking use InsertEdge/DeleteEdge/
// ApplyEvent, which wait for queue space and for the mutation's result.
var ErrQueueFull = errors.New("dkcore: session mutation queue full")

// ErrSessionClosed is returned by Session.Enqueue and Session.Flush
// after Close. The closed session keeps serving reads from its last
// published epoch forever; only mutations are refused.
var ErrSessionClosed = errors.New("dkcore: session closed")

// Epoch is one immutable snapshot of a Session's decomposition: the
// per-node coreness, the degeneracy, and the edge set as of one absorbed
// mutation batch, tagged with a monotonically increasing sequence
// number. All methods are read-only, safe for concurrent use, and never
// observe later mutations — two queries against the same Epoch are
// guaranteed mutually consistent, which a pair of Session-level queries
// (two separate atomic loads) is not.
//
// The edge set is the maintainer's frozen adjacency, shared with it
// copy-on-write, so publishing an epoch costs O(n) plus the lists the
// batch touched rather than a rebuild of every edge; the CSR Graph is
// built from it on first demand.
type Epoch struct {
	seq        uint64
	coreness   []int
	degeneracy int
	adj        stream.Frozen
	graph      func() *Graph
}

// newEpoch freezes the maintainer's current state. Called only from the
// session writer, after a batch is fully absorbed.
func newEpoch(seq uint64, mt *stream.Maintainer) *Epoch {
	adj := mt.Freeze()
	return &Epoch{
		seq:        seq,
		coreness:   mt.CorenessValues(),
		degeneracy: mt.MaxCoreness(),
		adj:        adj,
		graph:      sync.OnceValue(adj.Graph),
	}
}

// Seq returns the epoch's sequence number. The initial decomposition is
// epoch 1; every published batch increments it by one. A client that
// observed epoch N never observes an epoch < N from the same Session.
func (e *Epoch) Seq() uint64 { return e.seq }

// Coreness returns the coreness of node u in this epoch, or 0 for
// unknown nodes.
func (e *Epoch) Coreness(u int) int {
	if u < 0 || u >= len(e.coreness) {
		return 0
	}
	return e.coreness[u]
}

// CorenessValues returns a copy of the epoch's per-node coreness array.
func (e *Epoch) CorenessValues() []int {
	out := make([]int, len(e.coreness))
	copy(out, e.coreness)
	return out
}

// KCoreMembers returns the sorted IDs of the nodes in this epoch's
// k-core (coreness >= k); k <= 0 returns every node.
func (e *Epoch) KCoreMembers(k int) []int {
	var out []int
	for u, c := range e.coreness {
		if c >= k {
			out = append(out, u)
		}
	}
	return out
}

// Degeneracy returns the epoch's maximum coreness, precomputed at
// publish time — an O(1) read where the pre-epoch Session paid an O(n)
// scan under the read lock.
func (e *Epoch) Degeneracy() int { return e.degeneracy }

// NumNodes returns the epoch's node count.
func (e *Epoch) NumNodes() int { return len(e.coreness) }

// NumEdges returns the epoch's undirected edge count.
func (e *Epoch) NumEdges() int { return e.adj.NumEdges() }

// HasEdge reports whether the undirected edge {u, v} is present in this
// epoch, by binary search of u's frozen neighbor list.
func (e *Epoch) HasEdge(u, v int) bool { return e.adj.HasEdge(u, v) }

// Graph returns the epoch's edge set as an immutable CSR graph, built
// from the frozen adjacency on the first call (O(n+m), one copy, no
// sort) and reused after. The returned graph is shared by every caller
// of this method on the same Epoch and must not be modified; use
// Session.Snapshot for a private mutable-safe copy.
func (e *Epoch) Graph() *Graph { return e.graph() }

// SessionStats is a point-in-time counter snapshot of a Session's
// serving state, for monitoring and the /stats and /healthz endpoints
// of cmd/kcore-serve.
type SessionStats struct {
	// Epoch is the sequence number of the currently published epoch.
	Epoch uint64
	// NumNodes and NumEdges describe the published epoch's graph.
	NumNodes, NumEdges int
	// Degeneracy is the published epoch's maximum coreness.
	Degeneracy int
	// QueueDepth is the number of mutations waiting in the ingest queue.
	QueueDepth int
	// Enqueued counts mutations accepted since session creation.
	Enqueued int64
	// Applied counts mutations absorbed by the writer. EpochLag
	// (Enqueued - Applied, clamped at 0) is the freshness gap a reader
	// can observe.
	Applied int64
	// Batches counts published epochs beyond the initial one — the
	// number of writer batches that changed the graph.
	Batches int64
}

// EpochLag returns the number of accepted mutations not yet reflected
// in the published epoch, clamped at 0.
func (st SessionStats) EpochLag() int64 {
	if lag := st.Enqueued - st.Applied; lag > 0 {
		return lag
	}
	return 0
}

// sessionConfig holds the tunables SessionOption constructors set.
type sessionConfig struct {
	queueSize int
	maxBatch  int
}

// SessionOption tunes a Session's mutation queue; pass to NewSession or
// Engine.NewSession.
type SessionOption func(*sessionConfig)

// QueueSize bounds the mutation ingest queue (default 1024). A full
// queue makes Enqueue return ErrQueueFull and the blocking mutators
// wait — the backpressure knob.
func QueueSize(n int) SessionOption {
	return func(c *sessionConfig) { c.queueSize = n }
}

// MaxBatch bounds how many queued mutations the writer absorbs into one
// epoch (default 256). Larger batches amortize the epoch publish — O(n)
// for the coreness copy and list headers, plus a copy of each neighbor
// list the batch touched — over more mutations at the cost of coarser
// snapshot granularity. A frame of ApplyEvents is absorbed whole when
// it holds at most MaxBatch events.
func MaxBatch(n int) SessionOption {
	return func(c *sessionConfig) { c.maxBatch = n }
}

// sessionOp is one entry of the mutation queue: an enqueued edge event
// (ev), one chunk of an ApplyEvents frame (evs, with per-event results
// written to out), or a flush sentinel that just wants to know every
// earlier op was absorbed.
type sessionOp struct {
	ev    stream.Event
	evs   []stream.Event
	out   []bool
	flush bool
	done  chan struct{} // non-nil: signalled once the op's batch is published
}

// size is what the op counts toward MaxBatch: its events, or one.
func (op *sessionOp) size() int {
	if op.evs != nil {
		return len(op.evs)
	}
	return 1
}

// writer is the Session's single mutator goroutine: it drains the queue
// in batches of at most MaxBatch events, absorbs each batch into the
// maintainer, publishes one immutable Epoch per batch that changed the
// graph, and only then signals each op's waiter. An op that would push
// a batch past MaxBatch is held for the next batch, so a frame is never
// split across epochs. It exits when the queue is closed, after
// draining every remaining op.
func (s *Session) writer(mt *stream.Maintainer) {
	defer close(s.writerDone)
	batch := make([]sessionOp, 0, s.maxBatch)
	var next sessionOp
	held := false // next was received but left for this batch
	for {
		if !held {
			var ok bool
			if next, ok = <-s.queue; !ok {
				return
			}
		}
		held = false
		batch = append(batch[:0], next)
		size := next.size()
	drain:
		for size < s.maxBatch {
			select {
			case op, ok := <-s.queue:
				if !ok {
					break drain
				}
				if size+op.size() > s.maxBatch {
					next, held = op, true
					break drain
				}
				batch = append(batch, op)
				size += op.size()
			default:
				break drain
			}
		}
		s.absorb(mt, batch)
		for _, op := range batch {
			if op.done != nil {
				op.done <- struct{}{}
			}
		}
	}
}

// edgeKey normalizes an undirected edge for coalescing.
type edgeKey struct{ u, v int }

// edgeState tracks one coalesced edge through a batch: presence before
// the batch and presence after the ops simulated so far.
type edgeState struct{ before, after bool }

// absorb applies one batch to the maintainer and publishes an epoch if
// the graph changed. Ops on edges inside the pre-batch node set are
// coalesced: their results are computed by simulating presence per edge,
// and only each edge's net effect (insert, delete, or nothing for an
// insert+delete pair) touches the maintainer — so an edge that flaps
// within a batch costs zero cascades. Ops that would grow the node set
// are applied literally, keeping NumNodes (and hence the published
// state) exactly what a sequential replay of the batch would produce.
// Edge sets of the two classes are disjoint (a key is literal iff an
// endpoint is outside the frozen pre-batch node set), so the final state
// is order-independent and matches the sequential result. A frame op's
// per-event results go to its out slice.
func (s *Session) absorb(mt *stream.Maintainer, batch []sessionOp) {
	n0 := mt.NumNodes()
	changed := false
	applied := int64(0)
	pending := s.pending
	clear(pending)
	apply := func(ev stream.Event) bool {
		applied++
		u, v := ev.U, ev.V
		if u < 0 || v < 0 || u == v {
			return false
		}
		if u >= n0 || v >= n0 {
			ok := mt.Apply(ev)
			changed = changed || ok
			return ok
		}
		if u > v {
			u, v = v, u
		}
		key := edgeKey{u, v}
		st, seen := pending[key]
		if !seen {
			p := mt.HasEdge(u, v)
			st = edgeState{before: p, after: p}
		}
		// A delete succeeds on a present edge, an insert on an absent one.
		ok := st.after == (ev.Op == stream.OpDelete)
		st.after = ev.Op != stream.OpDelete
		pending[key] = st
		return ok
	}
	for _, op := range batch {
		switch {
		case op.flush:
		case op.evs == nil:
			apply(op.ev)
		default:
			for i, ev := range op.evs {
				op.out[i] = apply(ev)
			}
		}
	}
	for key, st := range pending {
		if st.after == st.before {
			continue
		}
		if st.after {
			mt.InsertEdge(key.u, key.v)
		} else {
			mt.DeleteEdge(key.u, key.v)
		}
		changed = true
	}
	if changed {
		seq := s.cur.Load().seq + 1
		s.cur.Store(newEpoch(seq, mt))
		s.batches.Add(1)
	}
	// Results become visible to waiters only after the epoch carrying
	// their effect is published, so a caller whose InsertEdge returned
	// true immediately observes an epoch containing that edge.
	s.applied.Add(applied)
}
