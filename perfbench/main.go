// Command perfbench is the repository benchmark. One run executes one
// seeded workload and prints, as its last line, a JSON object with the
// keys correct, attempted, failed and metrics:
//
//	perfbench --workload powerlaw --seed 1 --seconds 36 --trace 0
//
// A workload is an input family; every input of a run is generated from
// the seed. Each run goes through three phases on graphs of that family,
// and checks every result against the Batagelj–Zaversnik oracle
// (internal/kcore):
//
//   - spill: the OutOfCore engine over a corpus of small graphs, each
//     under a memory budget about a tenth of its block store. One pass
//     of the corpus runs before anything else is built, for the peak
//     resident size;
//   - batch: the Sequential, Parallel (modulo assignment over two
//     partitions) and Cluster (two hosts over loopback, which partition
//     by modulo too) engines over a corpus of large graphs. The spill and
//     batch engines then run in rotation for half the run;
//   - serve: a Session behind the binary serve front end, read in a
//     closed loop on one connection while a second connection sends
//     churn batches with Mutate(wait) at a fixed rate, for the other half.
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run instead times calls into each layer from this package — a
// single-goroutine replay of the Parallel round schedule, a byte- and
// time-counting dialer under the cluster hosts, a timing filesystem
// under the out-of-core block store, and a replay of the churn into a
// bare stream.Maintainer — and prints the per-layer metrics. Spans are
// written to <out>/run/<workload>-<seed>.jsonl.
//
// Before the result line the run prints one environment record: CPU
// count, GOMAXPROCS, Go version, seed, graph sizes, partition policy,
// budget, block size and mutation rate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one benchmark run accumulates across its phases.
type run struct {
	w       workload
	seed    int64
	window  time.Duration // measurement time for the whole run
	scratch string        // spill files and trace output live here
	tr      *tracer       // nil for an untraced run

	attempted int64
	failed    int64
	errs      []string

	metrics map[string]float64
	env     map[string]any
}

func newRun(w workload, seed int64, window time.Duration, scratch string, traced bool) *run {
	r := &run{
		w: w, seed: seed, window: window, scratch: scratch,
		metrics: make(map[string]float64),
		env: map[string]any{
			"workload":   w.name,
			"seed":       seed,
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"trace":      traced,
			"window_s":   window.Seconds(),
		},
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// subSeed derives the seed of one generated input from the run seed, so
// phases and inputs never share a random stream.
func (r *run) subSeed(k int64) int64 { return r.seed*1_000_003 + k }

// phaseWindow is the share of the run's measurement time one phase gets.
func (r *run) phaseWindow(share float64) time.Duration {
	return time.Duration(float64(r.window) * share)
}

// check counts one attempted operation and records err as its failure.
func (r *run) check(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failed operation.
func (r *run) fail(err error) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// execute runs every phase of the workload.
func (r *run) execute(ctx context.Context) error {
	if err := r.decompose(ctx); err != nil {
		return err
	}
	if err := r.servePhase(ctx); err != nil {
		return fmt.Errorf("serve phase: %w", err)
	}
	r.set("setup_s", r.metrics["setup.spill_s"]+r.metrics["setup.batch_s"]+r.metrics["setup.serve_s"])
	return nil
}

// decompose runs the spill and batch phases: the out-of-core corpus
// alone first, for the peak resident size, then every engine in
// rotation. A traced run rotates for half the window and spends the
// rest on the traced calls.
func (r *run) decompose(ctx context.Context) error {
	spill, err := r.spillUnit()
	if err != nil {
		return fmt.Errorf("spill set-up: %w", err)
	}
	if err := r.peakRSS(ctx, spill); err != nil {
		return err
	}
	batch, err := r.batchUnits()
	if err != nil {
		return fmt.Errorf("batch set-up: %w", err)
	}
	units := append([]*unit{spill}, batch...)
	window := r.phaseWindow(decomposeShare)
	if r.tr != nil {
		window /= 2
	}
	r.rotate(ctx, units, window)
	for _, u := range units {
		if err := r.record(u); err != nil {
			return err
		}
	}
	r.describeSpill(spill)
	r.describeBatch(batch[0], batch[1], batch[2])
	if r.tr == nil {
		return nil
	}
	r.env["layer_moves"] = layerMoves()
	if err := r.traceSpill(ctx, spill); err != nil {
		return err
	}
	if err := r.traceParallel(batch[1]); err != nil {
		return err
	}
	return r.traceCluster(ctx, batch[2])
}

// report selects the metrics of the run's kind and validates them.
func (r *run) report() (result, error) {
	specs := endToEnd
	if r.tr != nil {
		specs = perLayer
	}
	res := result{
		Attempted: r.attempted,
		Failed:    r.failed,
		Correct:   r.failed == 0,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, m := range specs {
		v, ok := r.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses the arguments, runs one workload and prints the environment
// record and the result. It returns the process exit code; on any
// failure to complete the run it prints no result line.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 36, "measurement time of the run, split over its phases")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for spill files and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	scratch, err := filepath.Abs(filepath.Join(*out, "run"))
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	r := newRun(w, *seed, time.Duration(*seconds)*time.Second, scratch, *trace == 1)
	if err := r.execute(context.Background()); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, e := range r.errs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
	}
	res, err := r.report()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if r.tr != nil {
		path := filepath.Join(scratch, fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		r.env["trace_file"] = path
	}
	envLine, err := json.Marshal(map[string]any{"env": r.env})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", envLine, resLine)
	return 0
}
