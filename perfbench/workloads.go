package main

import (
	"dkcore/internal/gen"
	"dkcore/internal/graph"
)

// Shares of a run's measurement time given to each phase.
const (
	decomposeShare = 0.50 // spill and batch phases, in rotation
	serveShare     = 0.50
)

// workload is one input family and the sizes each phase generates from
// it. Sizes, budgets and the mutation rate are fixed per workload; only
// the seed changes between runs.
type workload struct {
	name   string
	family string
	graph  func(n int, seed int64) *graph.Graph

	batchN      int // nodes of each batch-phase graph
	batchGraphs int // graphs in the batch-phase corpus

	spillN      int   // nodes of each spill-phase graph
	spillGraphs int   // graphs in the spill-phase corpus
	budget      int64 // out-of-core memory budget, about a tenth of the block store
	blockNodes  int   // nodes per spilled block

	serveN      int     // nodes of the serve-phase base graph
	mutateRate  float64 // churn batches sent per second
	mutateBatch int     // events per churn batch
}

func powerLaw(n int, seed int64) *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: n, Exponent: 2.1, MinDeg: 3}, seed)
}

func barabasiAlbert(n int, seed int64) *graph.Graph {
	return gen.BarabasiAlbert(n, 3, seed)
}

// workloads are the benchmark's input families. The power-law spill
// corpus is 16 graphs of 10k nodes. A power-law graph's out-of-core pass
// count varies widely with its seed: over ten seeds, the quartile spread
// of the corpus total was 22% of its median for 8 graphs of 20k nodes,
// 15% for 16 of 10k and 6% for 32 of 5k. Smaller graphs spend a larger
// share of their time in fsync, though, whose latency on a shared
// virtual disk varies from process to process; on a 2-vCPU VM the
// 16×10k corpus gave the steadiest wall time of the three.
// Barabási–Albert pass counts barely vary. Each mutation rate keeps the
// Session writer busy about half the time.
var workloads = []workload{
	{
		name: "powerlaw", family: "powerlaw(gamma=2.1,mindeg=3)", graph: powerLaw,
		batchN: 150_000, batchGraphs: 2,
		spillN: 10_000, spillGraphs: 16, budget: 16 << 10, blockNodes: 4096,
		serveN: 20_000, mutateRate: 24, mutateBatch: 2,
	},
	{
		name: "ba-plateau", family: "barabasi-albert(m=3)", graph: barabasiAlbert,
		batchN: 150_000, batchGraphs: 2,
		spillN: 40_000, spillGraphs: 2, budget: 48 << 10, blockNodes: 8192,
		serveN: 20_000, mutateRate: 34, mutateBatch: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
