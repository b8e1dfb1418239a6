package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dkcore"
	"dkcore/internal/cluster"
	"dkcore/internal/core"
	"dkcore/internal/graph"
	"dkcore/internal/transport"
)

// batchParts is the partition count of the Parallel engine and the host
// count of the Cluster engine. Both assign node u to u mod batchParts, so
// parallel_s against cluster_s isolates the wire and the relay.
const batchParts = 2

// batchUnits builds the batch corpus and the Sequential, Parallel and
// Cluster engines over it.
func (r *run) batchUnits() ([]*unit, error) {
	var gs []*graph.Graph
	var engines []*dkcore.Engine
	err := r.timeSetup("setup.batch_s", func() error {
		gs = r.corpus(r.w.batchGraphs, r.w.batchN, 200)
		seq, err := dkcore.NewEngine(dkcore.Sequential)
		if err != nil {
			return err
		}
		par, err := dkcore.NewEngine(dkcore.Parallel, dkcore.PartitionBy(dkcore.ModuloAssignment{H: batchParts}))
		if err != nil {
			return err
		}
		clu, err := dkcore.NewEngine(dkcore.Cluster, dkcore.Hosts(batchParts))
		engines = []*dkcore.Engine{seq, par, clu}
		return err
	})
	if err != nil {
		return nil, err
	}
	oracles := oracleAll(gs)
	units := make([]*unit, len(engines))
	for k, metric := range []string{"seq_s", "parallel_s", "cluster_s"} {
		units[k] = newUnit(metric, engines[k], gs, oracles)
	}
	return units, nil
}

func (r *run) describeBatch(seq, par, clu *unit) {
	w := r.w
	r.env["batch"] = map[string]any{
		"family": w.family, "graphs": len(seq.gs), "n": w.batchN, "m_total": edgesOf(seq.gs),
		"policy": "modulo", "partitions": batchParts, "hosts": batchParts,
		"parallel_rounds_total": par.rounds(), "parallel_estimates_total": par.estimates(),
		"cluster_rounds_total": clu.rounds(),
		"corpus_passes":        []int{len(seq.passes), len(par.passes), len(clu.passes)},
	}
}

// traceParallel replays the Parallel engine's round schedule on the same
// modulo partitions, on one goroutine, for every corpus graph, timing
// each partition's step and each core call inside it. Apply is a
// pointwise minimum, so each replay must reproduce its engine run's
// rounds and estimates exactly. Every shipped batch is also encoded and
// decoded with the wire codec. Metrics are totals over the corpus.
func (r *run) traceParallel(par *unit) error {
	tr := r.tr
	root := tr.start("parallel.corpus", 0)
	var rounds int
	var estimates int64
	var arcs [batchParts]int
	for i, g := range par.gs {
		rr, err := r.replayParallel(root, g, par.oracles[i])
		if err != nil {
			return err
		}
		if rep := par.firsts[i]; rr.rounds != rep.Rounds || rr.estimates != rep.EstimatesSent {
			r.fail(fmt.Errorf("parallel replay: rounds/estimates %d/%d, engine reported %d/%d",
				rr.rounds, rr.estimates, rep.Rounds, rep.EstimatesSent))
		}
		rounds += rr.rounds
		estimates += rr.estimates
		for x := range arcs {
			arcs[x] += rr.arcs[x]
		}
	}
	tr.end(root)
	untraced := par.passes.median() * time.Duration(len(par.gs))

	encode := tr.total(root, "transport.AppendBatch")
	decode := tr.total(root, "transport.DecodeBatch")
	wall := tr.get(root).dur() - encode - decode
	partition := tr.total(root, "core.PartitionAll")
	link := tr.total(root, "core.LinkPeerLocals")
	build := tr.total(root, "core.NewPartitionState") + link
	phases := partition + build
	for _, c := range coreCalls {
		d := tr.total(root, c.span)
		phases += d
		r.set(c.metric, secs(d))
	}
	r.set("core.partition_s", secs(partition))
	r.set("core.state_build_s", secs(build))
	r.set("core.rounds", float64(rounds))
	r.set("core.estimates_sent", float64(estimates))
	r.set("core.unaccounted_share", 1-ratio(float64(phases), float64(wall)))
	r.set("transport.encode_ns_per_estimate", ratio(nanos(encode), float64(estimates)))
	r.set("transport.decode_ns_per_estimate", ratio(nanos(decode), float64(estimates)))

	// The engine runs each round's partition steps concurrently and
	// waits for the slowest, so the round's critical path is its longest
	// step and Σ(max − mean) / Σ max is the share of it spent waiting at
	// the barrier. It builds the partition states concurrently too.
	var sumMax, sumWait, slowestBuilds time.Duration
	for _, rs := range tr.find(root, "parallel.round") {
		longest, mean := spread(tr.find(rs.ID, "parallel.step"))
		sumMax += longest
		sumWait += longest - mean
	}
	for _, rp := range tr.find(root, "parallel.replay") {
		longest, _ := spread(tr.find(rp.ID, "core.NewPartitionState"))
		slowestBuilds += longest
	}
	r.set("parallel.barrier_wait_share", ratio(float64(sumWait), float64(sumMax)))
	maxArcs, allArcs := 0, 0
	for _, a := range arcs {
		maxArcs = max(maxArcs, a)
		allArcs += a
	}
	r.set("parallel.arc_skew", ratio(float64(maxArcs), float64(allArcs)/batchParts))
	r.set("parallel.outside_layers_s", secs(untraced-partition-slowestBuilds-link-sumMax))
	r.set("overhead.parallel_untraced_s", secs(untraced))
	r.set("overhead.parallel_replay_s", secs(wall))
	return nil
}

// coreCalls maps each per-partition core call the replay times to its
// metric.
var coreCalls = []struct{ span, metric string }{
	{"core.InitEstimates", "core.init_s"},
	{"core.ApplyPeerLocal", "core.apply_s"},
	{"core.ImproveIfDirty", "core.cascade_s"},
	{"core.CollectPeerLocal", "core.collect_s"},
}

// spread returns the longest and the mean duration of spans.
func spread(spans []span) (longest, mean time.Duration) {
	if len(spans) == 0 {
		return 0, 0
	}
	var total time.Duration
	for _, s := range spans {
		longest = max(longest, s.dur())
		total += s.dur()
	}
	return longest, total / time.Duration(len(spans))
}

// replayCounts is what one replay shipped and how it partitioned.
type replayCounts struct {
	rounds    int
	estimates int64
	arcs      [batchParts]int
}

// replayParallel replays one graph's Parallel run under parent and
// checks the coreness it converges to.
func (r *run) replayParallel(parent int, g *graph.Graph, oracle []int) (replayCounts, error) {
	tr := r.tr
	var rc replayCounts
	root := tr.start("parallel.replay", parent)
	sp := tr.start("core.PartitionAll", root)
	parts, err := core.PartitionAll(g, core.ModuloAssignment{H: batchParts})
	tr.end(sp)
	if err != nil {
		return rc, err
	}
	states := make([]*core.HostState, batchParts)
	for x := range states {
		sp = tr.start("core.NewPartitionState", root)
		states[x] = parts.NewPartitionState(x)
		tr.end(sp)
		_, _, flat := parts.CSR(x)
		rc.arcs[x] = len(flat)
	}
	sp = tr.start("core.LinkPeerLocals", root)
	core.LinkPeerLocals(parts, states)
	tr.end(sp)

	inbox := make([][]core.Batch, batchParts)
	next := make([][]core.Batch, batchParts)
	outbox := make([][]core.Batch, batchParts)
	var buf []byte
	var scratch core.Batch
	for round := 0; ; round++ {
		rs := tr.start("parallel.round", root)
		for x, s := range states {
			step := tr.start("parallel.step", rs)
			if round == 0 {
				id := tr.start("core.InitEstimates", step)
				s.InitEstimates()
				tr.end(id)
			} else {
				id := tr.start("core.ApplyPeerLocal", step)
				for _, b := range inbox[x] {
					s.ApplyPeerLocal(b)
				}
				inbox[x] = inbox[x][:0]
				tr.end(id)
				id = tr.start("core.ImproveIfDirty", step)
				s.ImproveIfDirty()
				tr.end(id)
			}
			id := tr.start("core.CollectPeerLocal", step)
			outbox[x] = s.CollectPeerLocal()
			tr.end(id)
			tr.end(step)
		}
		active := false
		for x, s := range states {
			nh := s.NeighborHosts()
			for i, b := range outbox[x] {
				if len(b) == 0 {
					continue
				}
				next[nh[i]] = append(next[nh[i]], b)
				rc.estimates += int64(len(b))
				active = true
				// AppendBatch sorts its input, so encode a copy and leave
				// the batch the receiver applies as the engine would.
				scratch = append(scratch[:0], b...)
				if buf, err = r.codecRoundTrip(rs, buf, scratch); err != nil {
					return rc, err
				}
			}
		}
		tr.end(rs)
		if !active {
			rc.rounds = round + 1
			break
		}
		inbox, next = next, inbox
	}
	tr.end(root)

	got := make([]int, g.NumNodes())
	for _, s := range states {
		for _, u := range s.Owned() {
			got[u], _ = s.Estimate(u)
		}
	}
	r.check(checkCoreness("parallel replay", oracle, got))
	return rc, nil
}

// codecRoundTrip encodes b with the wire codec into buf, decodes it back
// and checks the round trip, timing both calls under parent. Encoding
// sorts b in place.
func (r *run) codecRoundTrip(parent int, buf []byte, b core.Batch) ([]byte, error) {
	id := r.tr.start("transport.AppendBatch", parent)
	buf = transport.AppendBatch(buf[:0], b)
	r.tr.end(id)
	id = r.tr.start("transport.DecodeBatch", parent)
	dec, err := transport.DecodeBatch(buf)
	r.tr.end(id)
	if err != nil {
		return buf, fmt.Errorf("decode replayed batch: %w", err)
	}
	if !slices.Equal(dec, b) {
		return buf, fmt.Errorf("codec round trip changed a batch of %d estimates", len(b))
	}
	return buf, nil
}

// traceCluster runs the Cluster engine's deployment — an in-process
// coordinator and batchParts hosts over loopback — once per corpus
// graph, with each host's coordinator connection dialled through a
// byte- and time-counting wrapper. Metrics are totals over the corpus.
func (r *run) traceCluster(ctx context.Context, clu *unit) error {
	tr := r.tr
	root := tr.start("cluster.corpus", 0)
	var wire wireCounts
	var total cluster.Result
	for i, g := range clu.gs {
		res, err := r.runCluster(ctx, root, g, &wire)
		if err != nil {
			return fmt.Errorf("traced cluster run: %w", err)
		}
		r.check(checkCoreness("traced cluster", clu.oracles[i], res.Coreness))
		total.Rounds += res.Rounds
		total.EstimatesSent += res.EstimatesSent
		total.BatchBytesWire += res.BatchBytesWire
	}
	tr.end(root)

	write := tr.total(root, "transport.Write")
	read := tr.total(root, "transport.Read")
	r.set("cluster.rounds", float64(total.Rounds))
	r.set("cluster.estimates_sent", float64(total.EstimatesSent))
	r.set("cluster.batch_bytes_wire", float64(total.BatchBytesWire))
	r.set("cluster.host_compute_s", secs(tr.total(root, "cluster.RunHost")-write-read))
	r.set("transport.host_bytes_out", float64(wire.out.Load()))
	r.set("transport.host_bytes_in", float64(wire.in.Load()))
	r.set("transport.host_write_s", secs(write))
	r.set("transport.host_read_wait_s", secs(read))
	r.set("overhead.cluster_untraced_s", secs(clu.passes.median())*float64(len(clu.gs)))
	r.set("overhead.cluster_traced_s", secs(tr.get(root).dur()))
	return nil
}

// runCluster is one traced Cluster run under parent. It mirrors the
// engine's own deployment: a failing host cancels the run, and once the
// coordinator returns the hosts are cancelled and waited for.
func (r *run) runCluster(ctx context.Context, parent int, g *graph.Graph, wire *wireCounts) (*cluster.Result, error) {
	tr := r.tr
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Graph: g, NumHosts: batchParts, ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hostErrs := make([]error, batchParts)
	var wg sync.WaitGroup
	for i := 0; i < batchParts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			host := tr.start("cluster.RunHost", parent)
			dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return &countingConn{Conn: c, tr: tr, parent: host, counts: wire}, nil
			}
			_, hostErrs[i] = cluster.RunHost(runCtx, cluster.HostConfig{CoordinatorAddr: coord.Addr(), Dialer: dial})
			tr.end(host)
			if hostErrs[i] != nil {
				cancel()
			}
		}(i)
	}
	res, err := coord.RunContext(runCtx)
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	// Once the coordinator has its result, a host that saw the teardown's
	// cancellation has only observed the end of the run.
	for _, herr := range hostErrs {
		if herr != nil && !errors.Is(herr, context.Canceled) {
			return nil, herr
		}
	}
	return res, nil
}

// wireCounts totals the bytes every host moved over its connection.
type wireCounts struct{ in, out atomic.Int64 }

// countingConn records a span per Read and Write on a host's
// coordinator connection. A Read span is time the host waited for the
// coordinator; a Write span is time spent handing bytes to the kernel.
type countingConn struct {
	net.Conn
	tr     *tracer
	parent int
	counts *wireCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	id := c.tr.start("transport.Read", c.parent)
	n, err := c.Conn.Read(p)
	c.tr.end(id)
	c.counts.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	id := c.tr.start("transport.Write", c.parent)
	n, err := c.Conn.Write(p)
	c.tr.end(id)
	c.counts.out.Add(int64(n))
	return n, err
}
