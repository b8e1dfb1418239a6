package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dkcore"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

// setupReps is how many times each phase builds its inputs and engines;
// the phase's set-up time is the median.
const setupReps = 3

// sliceLen is how long each engine runs in one turn of the decompose
// rotation (at least one corpus pass). Short windows use shorter turns,
// so every engine still gets several.
const sliceLen = time.Second

// unit is one engine timed over one corpus of graphs. Graph-to-graph
// variation is large for some engines (the out-of-core pass count on
// power-law graphs varies by a fifth between seeds), so every sample is
// the mean wall time per graph over a whole pass of the corpus.
type unit struct {
	metric  string
	eng     *dkcore.Engine
	gs      []*graph.Graph
	oracles [][]int
	passes  sample
	// firsts holds each graph's first report; every later run of the
	// same graph must report the same rounds and estimates.
	firsts []*dkcore.Report
}

func newUnit(metric string, eng *dkcore.Engine, gs []*graph.Graph, oracles [][]int) *unit {
	return &unit{metric: metric, eng: eng, gs: gs, oracles: oracles, firsts: make([]*dkcore.Report, len(gs))}
}

// corpus generates k graphs of n nodes from consecutive sub-seeds.
func (r *run) corpus(k, n int, seedBase int64) []*graph.Graph {
	gs := make([]*graph.Graph, k)
	for i := range gs {
		gs[i] = r.w.graph(n, r.subSeed(seedBase+int64(i)))
	}
	return gs
}

// pass runs u's engine once on every graph of its corpus, checks each
// result against the oracle and records the mean wall time per graph. A
// failed run is counted and drops the pass's sample.
func (r *run) pass(ctx context.Context, u *unit) {
	var total time.Duration
	for i, g := range u.gs {
		start := time.Now()
		rep, err := u.eng.Run(ctx, g)
		total += time.Since(start)
		if err != nil {
			r.check(fmt.Errorf("%s run: %w", u.eng.Kind(), err))
			return
		}
		r.check(checkCoreness(u.eng.Kind().String(), u.oracles[i], rep.Coreness))
		if first := u.firsts[i]; first == nil {
			u.firsts[i] = rep
		} else if first.Rounds != rep.Rounds || first.EstimatesSent != rep.EstimatesSent {
			r.fail(fmt.Errorf("%s: rounds/estimates %d/%d, first run %d/%d",
				rep.Kind, rep.Rounds, rep.EstimatesSent, first.Rounds, first.EstimatesSent))
		}
	}
	u.passes = append(u.passes, total/time.Duration(len(u.gs)))
}

// rotate gives each unit a turn of sliceLen in a fixed rotation until
// window has elapsed (at least one full rotation). Interleaving the
// engines spreads each one's samples over the whole window, so a
// stretch in which the machine is slow touches every metric a little
// instead of one metric entirely. Each turn starts from a collected
// heap, so no engine pays for the garbage of the one before it.
func (r *run) rotate(ctx context.Context, units []*unit, window time.Duration) {
	slice := min(sliceLen, window/time.Duration(2*len(units)))
	deadline := time.Now().Add(window)
	for turn := 0; turn == 0 || time.Now().Before(deadline); turn++ {
		for _, u := range units {
			settle()
			end := time.Now().Add(slice)
			for p := 0; p == 0 || time.Now().Before(end); p++ {
				r.pass(ctx, u)
			}
		}
	}
}

// record sets u's metric to the median of its passes.
func (r *run) record(u *unit) error {
	if len(u.passes) == 0 {
		return fmt.Errorf("%s: no corpus pass completed without error", u.metric)
	}
	r.set(u.metric, secs(u.passes.median()))
	return nil
}

// rounds sums the rounds of each graph's first run.
func (u *unit) rounds() int {
	total := 0
	for _, rep := range u.firsts {
		if rep != nil {
			total += rep.Rounds
		}
	}
	return total
}

// estimates sums the estimates shipped by each graph's first run.
func (u *unit) estimates() int64 {
	var total int64
	for _, rep := range u.firsts {
		if rep != nil {
			total += rep.EstimatesSent
		}
	}
	return total
}

// oracleAll computes the Batagelj–Zaversnik coreness of every graph.
func oracleAll(gs []*graph.Graph) [][]int {
	out := make([][]int, len(gs))
	for i, g := range gs {
		out[i] = kcore.Decompose(g).CorenessValues()
	}
	return out
}

func edgesOf(gs []*graph.Graph) int {
	m := 0
	for _, g := range gs {
		m += g.NumEdges()
	}
	return m
}

// settle collects garbage and returns freed memory to the OS, so a
// measurement does not start under the previous step's heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// timeSetup runs build setupReps times and records the median duration
// as the named set-up metric. It keeps the last build's result.
func (r *run) timeSetup(metric string, build func() error) error {
	var setups sample
	for i := 0; i < setupReps; i++ {
		settle()
		start := time.Now()
		if err := build(); err != nil {
			return err
		}
		setups = append(setups, time.Since(start))
	}
	r.set(metric, secs(setups.median()))
	return nil
}
