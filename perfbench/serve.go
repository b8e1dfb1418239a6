package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"dkcore"
	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
	"dkcore/internal/serve"
	"dkcore/internal/stream"
)

// serveEnv is the serving stack of one serve phase: a Session over the
// base graph, the binary front end on loopback, and the two client
// connections that load it.
type serveEnv struct {
	base   *graph.Graph
	events []stream.Event
	sess   *dkcore.Session
	srv    *serve.Server
	reader *serve.Client
	writer *serve.Client
}

func newServeEnv(ctx context.Context, base *graph.Graph, events []stream.Event) (*serveEnv, error) {
	sess, err := dkcore.NewSession(ctx, base)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{base: base, events: events, sess: sess, srv: serve.New(sess)}
	addr, err := env.srv.ListenBinary("127.0.0.1:0")
	if err == nil {
		env.reader, err = serve.DialClient(addr.String())
	}
	if err == nil {
		env.writer, err = serve.DialClient(addr.String())
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// close tears the stack down: clients first, so the server's handlers
// see EOF, then the server, then the Session's writer goroutine.
func (e *serveEnv) close() {
	for _, c := range []*serve.Client{e.reader, e.writer} {
		if c != nil {
			c.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	e.sess.Close()
}

// servePhase drives the serving stack over its two connections: a
// closed loop of Coreness reads on one, an open loop of Mutate(wait)
// churn batches at a fixed rate on the other.
func (r *run) servePhase(ctx context.Context) error {
	w := r.w
	window := r.phaseWindow(serveShare)
	slots := int(window.Seconds()*w.mutateRate) + 1
	var env *serveEnv
	err := r.timeSetup("setup.serve_s", func() error {
		if env != nil {
			env.close()
		}
		base := w.graph(w.serveN, r.subSeed(3))
		events := gen.ChurnEvents(base, slots*w.mutateBatch, 0.5, r.subSeed(4))
		var err error
		env, err = newServeEnv(ctx, base, events)
		return err
	})
	if err != nil {
		return err
	}
	defer env.close()

	n := env.base.NumNodes()
	settle()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rl readLoad
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rl = closedLoopReads(env.reader, n, r.subSeed(5), start, stop)
	}()
	var lagMax int64
	if r.tr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lagMax = sampleEpochLag(env.sess, stop)
		}()
	}

	ml := r.openLoopMutations(env, start, window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	reads := rl.lat
	r.attempted += int64(len(reads))
	for _, err := range rl.errs {
		r.fail(err)
	}
	visible := ml.visible
	if len(reads) == 0 || len(visible) == 0 {
		return fmt.Errorf("no reads or no mutations completed")
	}

	// Every mutation has been waited for; Flush makes that explicit
	// before the final state is checked against the oracle.
	if err := env.sess.Flush(); err != nil {
		return err
	}
	oracle := kcore.Decompose(env.sess.Snapshot()).CorenessValues()
	r.check(checkCoreness("session after churn", oracle, env.sess.CorenessValues()))
	st := env.sess.Stats()
	if st.Applied != int64(len(visible)*w.mutateBatch) {
		r.fail(fmt.Errorf("session absorbed %d events, %d were sent", st.Applied, len(visible)*w.mutateBatch))
	}

	r.set("read_qps", rl.qps())
	r.set("read_p50_us", micros(reads.median()))
	r.set("read_p99_us", micros(reads.quantile(0.99)))
	r.set("visible_p50_ms", millis(visible.median()))
	r.set("visible_p90_ms", millis(visible.quantile(0.90)))
	r.set("loadgen.late_p99_ms", millis(ml.late.quantile(0.99)))
	r.env["serve"] = map[string]any{
		"family": w.family, "n": n, "m": env.base.NumEdges(),
		"read_connections": 1, "write_connections": 1,
		"mutate_rate_per_s": w.mutateRate, "mutate_batch_events": w.mutateBatch,
		"delete_fraction": 0.5, "reads": len(reads), "mutate_batches": len(visible),
		"read_p99_tail_ok": reads.tailOK(0.99), "visible_p90_tail_ok": visible.tailOK(0.90),
		"writer_busy_share": ml.busy.Seconds() / elapsed.Seconds(),
		"late_p99_ms":       millis(ml.late.quantile(0.99)),
		"epochs":            st.Batches,
	}
	if r.tr == nil {
		return nil
	}
	r.set("dkcore.epochs_per_event", ratio(float64(st.Batches), float64(st.Applied)))
	r.set("dkcore.epoch_lag_max", float64(lagMax))
	r.set("dkcore.read_ns", sessionReadNS(env.sess, r.subSeed(6)))
	r.set("serve.read_overhead_us", micros(reads.median())-r.metrics["dkcore.read_ns"]/1e3)
	return r.traceStream(env, len(visible), oracle, visible.median())
}

// mutationLoad is what the open mutation loop measured.
type mutationLoad struct {
	visible sample        // due time to Mutate(wait) return, per batch
	late    sample        // how late each batch was sent
	busy    time.Duration // total time spent inside Mutate
}

// openLoopMutations sends one churn batch per slot of the workload's
// mutation rate, from start until window has elapsed, each with
// Mutate(wait) on the writer connection. Each batch is timed from its
// due time, so when a slow batch holds up the next send, the delay
// counts in the next batch's latency too. Each batch must apply and
// change the graph in full, and epochs must never go back.
func (r *run) openLoopMutations(env *serveEnv, start time.Time, window time.Duration) mutationLoad {
	mb := r.w.mutateBatch
	interval := time.Duration(float64(time.Second) / r.w.mutateRate)
	var ml mutationLoad
	var lastEpoch uint64
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; (i+1)*mb <= len(env.events); i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= window {
			break
		}
		sleepUntil(due)
		ml.late = append(ml.late, time.Since(due))
		batch := env.events[i*mb : (i+1)*mb]
		t0 := time.Now()
		res, err := env.writer.Mutate(batch, true)
		done := time.Now()
		ml.busy += done.Sub(t0)
		ml.visible = append(ml.visible, done.Sub(due))
		switch {
		case err != nil:
			r.check(fmt.Errorf("mutate: %w", err))
		case res.Applied != len(batch) || res.Changed != len(batch):
			r.check(fmt.Errorf("mutate: %d events, %d applied, %d changed", len(batch), res.Applied, res.Changed))
		case res.Epoch < lastEpoch:
			r.check(fmt.Errorf("mutate: epoch went back from %d to %d", lastEpoch, res.Epoch))
		default:
			r.check(nil)
			lastEpoch = res.Epoch
		}
	}
	return ml
}

// qpsBucket is the interval reads are counted in. read_qps is the
// median over the run's whole buckets, so a short stall of the machine
// moves it less than a mean over the window would.
const qpsBucket = 250 * time.Millisecond

// readLoad is what the closed read loop measured.
type readLoad struct {
	lat    sample // latency of every read
	counts []int  // reads completed per qpsBucket since the phase start
	errs   []error
}

// qps returns the median read rate over the whole buckets.
func (l readLoad) qps() float64 {
	full := l.counts
	if len(full) > 1 {
		full = full[:len(full)-1] // the last bucket was cut short
	}
	var s sample
	for _, c := range full {
		s = append(s, time.Duration(c))
	}
	return float64(s.median()) / qpsBucket.Seconds()
}

// closedLoopReads issues Coreness reads of random nodes back to back
// until stop closes. Epochs on one connection must never go back.
func closedLoopReads(c *serve.Client, n int, seed int64, start time.Time, stop <-chan struct{}) readLoad {
	rng := rand.New(rand.NewSource(seed))
	// Room for every read the loop is likely to make, so the latency
	// slice is not regrown and copied while reads are being timed.
	l := readLoad{lat: make(sample, 0, 1<<21)}
	var last uint64
	for {
		select {
		case <-stop:
			return l
		default:
		}
		u := rng.Intn(n)
		t0 := time.Now()
		_, epoch, err := c.Coreness(u)
		t1 := time.Now()
		l.lat = append(l.lat, t1.Sub(t0))
		if b := int(t1.Sub(start) / qpsBucket); b < len(l.counts) {
			l.counts[b]++
		} else {
			l.counts = append(l.counts, make([]int, b+1-len(l.counts))...)
			l.counts[b] = 1
		}
		if err != nil {
			// The connection is unusable after a failed round trip.
			l.errs = append(l.errs, fmt.Errorf("read: %w", err))
			return l
		}
		if epoch < last {
			l.errs = append(l.errs, fmt.Errorf("read: epoch went back from %d to %d", last, epoch))
		}
		last = epoch
	}
}

// sleepUntil blocks the calling goroutine's OS thread in nanosleep until
// t; the caller locks the thread. Runtime timers are not precise enough
// for the mutation schedule: beside a closed loop of loopback reads on a
// 2-vCPU Xeon VM, time.Sleep woke 6 ms late at the median and 32 ms late
// at p90, while nanosleep woke within 0.1 ms at p90. A signal cuts a
// sleep short, so the loop sleeps again for what remains.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the clock
	}
}

// sampleEpochLag polls the Session's epoch lag until stop closes and
// returns the largest value seen.
func sampleEpochLag(sess *dkcore.Session, stop <-chan struct{}) int64 {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var most int64
	for {
		select {
		case <-stop:
			return most
		case <-tick.C:
			most = max(most, sess.Stats().EpochLag())
		}
	}
}

// sessionReadNS times in-process Session.Coreness calls on random nodes
// and returns the mean cost of one.
func sessionReadNS(sess *dkcore.Session, seed int64) float64 {
	const reads = 1 << 20
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]int, reads)
	for i := range nodes {
		nodes[i] = rng.Intn(sess.NumNodes())
	}
	sink := 0
	start := time.Now()
	for _, u := range nodes {
		sink += sess.Coreness(u)
	}
	d := time.Since(start)
	readSink = sink
	return nanos(d) / reads
}

// readSink keeps the timed reads from being optimised away.
var readSink int

// traceStream replays the churn batches the serve phase sent into a bare
// stream.Maintainer over the same base graph, timing each insert and
// delete and, after each event, the three Maintainer calls a Session
// makes to publish an epoch.
func (r *run) traceStream(env *serveEnv, sent int, oracle []int, visibleP50 time.Duration) error {
	tr := r.tr
	mb := r.w.mutateBatch
	mt := stream.NewMaintainer(env.base)
	root := tr.start("stream.replay", 0)
	var perBatch sample
	inserts, useful := 0, 0
	for i := 0; i < sent; i++ {
		bs := tr.start("stream.batch", root)
		for _, ev := range env.events[i*mb : (i+1)*mb] {
			cu, cv := mt.Coreness(ev.U), mt.Coreness(ev.V)
			name := "stream.InsertEdge"
			if ev.Op == stream.OpDelete {
				name = "stream.DeleteEdge"
			}
			id := tr.start(name, bs)
			ok := mt.Apply(ev)
			tr.end(id)
			if !ok {
				r.fail(fmt.Errorf("stream replay: event %v did not apply", ev))
			}
			// An insert that raises any coreness raises an endpoint's:
			// the new (k+1)-core must contain the new edge.
			if ev.Op == stream.OpInsert {
				inserts++
				if mt.Coreness(ev.U) != cu || mt.Coreness(ev.V) != cv {
					useful++
				}
			}
			id = tr.start("dkcore.publish", bs)
			_ = mt.CorenessValues()
			_ = mt.MaxCoreness()
			_ = mt.Graph()
			tr.end(id)
		}
		tr.end(bs)
		perBatch = append(perBatch, tr.get(bs).dur())
	}
	tr.end(root)
	r.check(checkCoreness("stream replay", oracle, mt.CorenessValues()))

	durs := func(name string) sample {
		var s sample
		for _, sp := range tr.find(root, name) {
			s = append(s, sp.dur())
		}
		return s
	}
	ins, del := durs("stream.InsertEdge"), durs("stream.DeleteEdge")
	r.set("stream.insert_p50_us", micros(ins.median()))
	r.set("stream.insert_p90_us", micros(ins.quantile(0.90)))
	r.set("stream.delete_p50_us", micros(del.median()))
	r.set("stream.insert_useful_frac", ratio(float64(useful), float64(inserts)))
	r.set("dkcore.publish_p50_ms", millis(durs("dkcore.publish").median()))
	r.set("serve.mutate_overhead_ms", millis(visibleP50-perBatch.median()))
	return nil
}
