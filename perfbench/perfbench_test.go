package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"dkcore"
	"dkcore/internal/gen"
	"dkcore/internal/graph"
)

// tiny shrinks a workload so one run of every phase takes a second or
// two, keeping its input family.
func tiny(w workload) workload {
	w.batchN, w.batchGraphs = 2000, 1
	w.spillN, w.spillGraphs, w.blockNodes, w.budget = 1500, 2, 512, 2<<10
	w.serveN = 800
	return w
}

func runTiny(t *testing.T, w workload, seed int64, traced bool) result {
	t.Helper()
	r := newRun(tiny(w), seed, time.Second, t.TempDir(), traced)
	if err := r.execute(context.Background()); err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", w.name, seed, traced, err)
	}
	res, err := r.report()
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", w.name, seed, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d traced=%v: correct=%v failed=%d attempted=%d: %v",
			w.name, seed, traced, res.Correct, res.Failed, res.Attempted, r.errs)
	}
	return res
}

// TestTinyWorkloads runs every workload at tiny size, untraced and
// traced, and checks that each run emits exactly its metric table, every
// value finite and with its unit — on two seeds.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			var keys [][]string
			for _, seed := range []int64{1, 2} {
				res := runTiny(t, w, seed, traced)
				for _, m := range specs {
					got, ok := res.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, m.name, got.Value)
					case got.Unit == "" || got.Unit != m.unit:
						t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.name, traced, m.name, got.Unit, m.unit)
					}
				}
				keys = append(keys, metricNames(res))
			}
			if strings.Join(keys[0], ",") != strings.Join(keys[1], ",") {
				t.Errorf("%s traced=%v: seeds emit different metric sets:\n%v\n%v", w.name, traced, keys[0], keys[1])
			}
			if len(keys[0]) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, table has %d", w.name, traced, len(keys[0]), len(specs))
			}
		}
	}
}

func metricNames(res result) []string {
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestCheckCorenessRejectsCorruption(t *testing.T) {
	want := []int{3, 3, 2, 1}
	if err := checkCoreness("x", want, []int{3, 3, 2, 1}); err != nil {
		t.Fatalf("identical vectors: %v", err)
	}
	for _, got := range [][]int{{3, 3, 2, 2}, {3, 3, 2}, {3, 3, 2, 1, 0}} {
		if err := checkCoreness("x", want, got); err == nil {
			t.Errorf("corrupted vector %v passed the oracle check", got)
		}
	}
}

// TestPassCountsOracleMismatch feeds a corpus pass an oracle with one
// coreness value changed: the run must count the failure and report
// itself incorrect.
func TestPassCountsOracleMismatch(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 7)
	oracles := oracleAll([]*graph.Graph{g})
	oracles[0][17]++
	eng, err := dkcore.NewEngine(dkcore.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(workloads[0], 1, time.Second, t.TempDir(), false)
	u := newUnit("seq_s", eng, []*graph.Graph{g}, oracles)
	r.pass(context.Background(), u)
	if r.failed != 1 || r.attempted != 1 {
		t.Fatalf("attempted=%d failed=%d, want 1 and 1", r.attempted, r.failed)
	}
	for _, m := range endToEnd {
		r.set(m.name, 1)
	}
	res, err := r.report()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a run with an oracle mismatch reported correct")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric tables and the
// workload list.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), benchmark has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		spec := endToEnd[i]
		if m.Name != spec.name || m.Unit != spec.unit || m.Better != spec.better {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, spec)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(b.PerLayer), len(perLayer))
	}
	e2e := make(map[string]bool)
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	for i, m := range b.PerLayer {
		spec := perLayer[i]
		if m.Name != spec.name || m.Unit != spec.unit || m.Better != spec.better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, spec)
		}
		for _, moved := range spec.moves {
			if !e2e[moved] {
				t.Errorf("%s moves %q, which is not an end-to-end metric", spec.name, moved)
			}
		}
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "powerlaw", "--seconds", "0"},
		{"--workload", "powerlaw", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}
