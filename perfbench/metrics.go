package main

import "slices"

// metricSpec is one metric the benchmark reports: its name and unit, the
// direction that counts as better, and — for a per-layer metric — the
// layer it belongs to and the end-to-end metrics a change to it should
// move. The table below is the single source of the metric set; the
// tests hold BENCHMARK.json to it.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	layer  string // per-layer metrics only
	moves  []string
}

// endToEnd are the metrics of an untraced run (--trace 0). Every
// workload reports all of them: each run executes the batch, spill and
// serve phases on its own input family.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "seq_s", unit: "s", better: "lower"},
	{name: "parallel_s", unit: "s", better: "lower"},
	{name: "cluster_s", unit: "s", better: "lower"},
	{name: "oocore_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "read_qps", unit: "1/s", better: "higher"},
	{name: "read_p50_us", unit: "us", better: "lower"},
	{name: "read_p99_us", unit: "us", better: "lower"},
	{name: "visible_p50_ms", unit: "ms", better: "lower"},
	{name: "visible_p90_ms", unit: "ms", better: "lower"},
}

var (
	movesParallel = []string{"parallel_s", "cluster_s"}
	movesCascade  = []string{"parallel_s", "cluster_s", "oocore_s"}
	movesCluster  = []string{"cluster_s"}
	movesOocore   = []string{"oocore_s", "peak_rss_mb"}
	movesVisible  = []string{"visible_p50_ms", "visible_p90_ms"}
	movesEpoch    = []string{"visible_p50_ms", "visible_p90_ms", "read_p99_us"}
)

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricSpec{
	{name: "core.partition_s", unit: "s", better: "lower", layer: "core", moves: movesParallel},
	{name: "core.state_build_s", unit: "s", better: "lower", layer: "core", moves: movesParallel},
	{name: "core.init_s", unit: "s", better: "lower", layer: "core", moves: movesParallel},
	{name: "core.apply_s", unit: "s", better: "lower", layer: "core", moves: movesParallel},
	{name: "core.cascade_s", unit: "s", better: "lower", layer: "core", moves: movesCascade},
	{name: "core.collect_s", unit: "s", better: "lower", layer: "core", moves: movesParallel},
	{name: "core.rounds", unit: "count", better: "lower", layer: "core", moves: movesParallel},
	{name: "core.estimates_sent", unit: "count", better: "lower", layer: "core", moves: movesParallel},
	{name: "core.unaccounted_share", unit: "ratio", better: "lower", layer: "core", moves: movesParallel},

	{name: "parallel.barrier_wait_share", unit: "ratio", better: "lower", layer: "parallel", moves: []string{"parallel_s"}},
	{name: "parallel.arc_skew", unit: "ratio", better: "lower", layer: "parallel", moves: []string{"parallel_s"}},
	{name: "parallel.outside_layers_s", unit: "s", better: "lower", layer: "parallel", moves: []string{"parallel_s"}},

	{name: "cluster.rounds", unit: "count", better: "lower", layer: "cluster", moves: movesCluster},
	{name: "cluster.estimates_sent", unit: "count", better: "lower", layer: "cluster", moves: movesCluster},
	{name: "cluster.batch_bytes_wire", unit: "bytes", better: "lower", layer: "cluster", moves: movesCluster},
	{name: "cluster.host_compute_s", unit: "s", better: "lower", layer: "cluster", moves: movesCluster},
	{name: "transport.host_bytes_out", unit: "bytes", better: "lower", layer: "transport", moves: movesCluster},
	{name: "transport.host_bytes_in", unit: "bytes", better: "lower", layer: "transport", moves: movesCluster},
	{name: "transport.host_write_s", unit: "s", better: "lower", layer: "transport", moves: movesCluster},
	{name: "transport.host_read_wait_s", unit: "s", better: "lower", layer: "transport", moves: movesCluster},
	{name: "transport.encode_ns_per_estimate", unit: "ns", better: "lower", layer: "transport", moves: movesCluster},
	{name: "transport.decode_ns_per_estimate", unit: "ns", better: "lower", layer: "transport", moves: movesCluster},

	{name: "oocore.spill_read_s", unit: "s", better: "lower", layer: "oocore", moves: movesOocore},
	{name: "oocore.spill_read_bytes", unit: "bytes", better: "lower", layer: "oocore", moves: movesOocore},
	{name: "oocore.spill_write_s", unit: "s", better: "lower", layer: "oocore", moves: movesOocore},
	{name: "oocore.fsync_s", unit: "s", better: "lower", layer: "oocore", moves: movesOocore},
	{name: "oocore.rename_s", unit: "s", better: "lower", layer: "oocore", moves: movesOocore},
	{name: "oocore.spill_write_bytes", unit: "bytes", better: "lower", layer: "oocore", moves: movesOocore},
	{name: "oocore.compute_s", unit: "s", better: "lower", layer: "oocore", moves: movesOocore},
	{name: "oocore.read_amp", unit: "ratio", better: "lower", layer: "oocore", moves: movesOocore},
	{name: "oocore.passes", unit: "count", better: "lower", layer: "oocore", moves: movesOocore},
	{name: "oocore.evictions", unit: "count", better: "lower", layer: "oocore", moves: movesOocore},
	{name: "oocore.hit_ratio", unit: "ratio", better: "higher", layer: "oocore", moves: movesOocore},
	{name: "oocore.peak_resident_over_budget", unit: "ratio", better: "lower", layer: "oocore", moves: movesOocore},

	{name: "stream.insert_p50_us", unit: "us", better: "lower", layer: "stream", moves: movesVisible},
	{name: "stream.insert_p90_us", unit: "us", better: "lower", layer: "stream", moves: movesVisible},
	{name: "stream.delete_p50_us", unit: "us", better: "lower", layer: "stream", moves: movesVisible},
	{name: "stream.insert_useful_frac", unit: "ratio", better: "higher", layer: "stream", moves: movesVisible},

	{name: "dkcore.publish_p50_ms", unit: "ms", better: "lower", layer: "dkcore", moves: movesEpoch},
	{name: "dkcore.epochs_per_event", unit: "ratio", better: "lower", layer: "dkcore", moves: movesEpoch},
	{name: "dkcore.epoch_lag_max", unit: "count", better: "lower", layer: "dkcore", moves: movesEpoch},
	{name: "dkcore.read_ns", unit: "ns", better: "lower", layer: "dkcore", moves: movesEpoch},

	{name: "serve.read_overhead_us", unit: "us", better: "lower", layer: "serve", moves: []string{"read_qps", "read_p50_us"}},
	{name: "serve.mutate_overhead_ms", unit: "ms", better: "lower", layer: "serve", moves: []string{"visible_p50_ms"}},

	// How late the open-loop mutation schedule ran: a validity check on
	// the run, not a target.
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower", layer: "loadgen"},

	// Tracing overhead: each traced call's wall time next to the same
	// call untraced in the same process.
	{name: "overhead.parallel_untraced_s", unit: "s", better: "lower", layer: "overhead"},
	{name: "overhead.parallel_replay_s", unit: "s", better: "lower", layer: "overhead"},
	{name: "overhead.cluster_untraced_s", unit: "s", better: "lower", layer: "overhead"},
	{name: "overhead.cluster_traced_s", unit: "s", better: "lower", layer: "overhead"},
	{name: "overhead.oocore_untraced_s", unit: "s", better: "lower", layer: "overhead"},
	{name: "overhead.oocore_traced_s", unit: "s", better: "lower", layer: "overhead"},
}

// layerMoves maps each layer to the end-to-end metrics a change to it
// should move, for the environment record of a traced run.
func layerMoves() map[string][]string {
	out := make(map[string][]string)
	for _, m := range perLayer {
		for _, e := range m.moves {
			if !slices.Contains(out[m.layer], e) {
				out[m.layer] = append(out[m.layer], e)
			}
		}
	}
	return out
}
