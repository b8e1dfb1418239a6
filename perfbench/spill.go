package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"dkcore"
	"dkcore/internal/chaos"
	"dkcore/internal/graph"
	"dkcore/internal/oocore"
)

// spillUnit builds the out-of-core corpus and engine: every graph runs
// under a budget about a tenth of its block store.
func (r *run) spillUnit() (*unit, error) {
	w := r.w
	var gs []*graph.Graph
	var eng *dkcore.Engine
	err := r.timeSetup("setup.spill_s", func() error {
		gs = r.corpus(w.spillGraphs, w.spillN, 100)
		var err error
		eng, err = dkcore.NewEngine(dkcore.OutOfCore, dkcore.WithMemoryBudget(w.budget),
			dkcore.WithBlockSize(w.blockNodes), dkcore.WithSpillDir(r.spillDir()))
		return err
	})
	if err != nil {
		return nil, err
	}
	return newUnit("oocore_s", eng, gs, oracleAll(gs)), nil
}

func (r *run) spillDir() string { return filepath.Join(r.scratch, "spill") }

// peakRSS runs one pass of the out-of-core corpus and reports the peak
// resident size reached from the end of the spill set-up to the end of
// the pass. Nothing of the other phases has been built yet, so the peak
// belongs to the out-of-core engine and its inputs. The pass also warms
// the engine up; its time is not a sample.
func (r *run) peakRSS(ctx context.Context, u *unit) error {
	settle()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	r.pass(ctx, u)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	u.passes = u.passes[:0]
	return nil
}

func (r *run) describeSpill(u *unit) {
	w := r.w
	r.env["spill"] = map[string]any{
		"family": w.family, "graphs": len(u.gs), "n": w.spillN, "m_total": edgesOf(u.gs),
		"budget_bytes": w.budget, "block_nodes": w.blockNodes,
		"passes_total": u.rounds(), "corpus_passes": len(u.passes),
	}
}

// traceSpill decomposes the corpus once more with the block store on a
// timing filesystem and derives the oocore metrics, summed over the
// corpus.
func (r *run) traceSpill(ctx context.Context, u *unit) error {
	w := r.w
	root := r.tr.start("oocore.corpus", 0)
	fs := &timingFS{tr: r.tr, parent: root}
	var res oocore.Result
	for i, g := range u.gs {
		one, err := oocore.Decompose(ctx, g, oocore.WithMemoryBudget(w.budget),
			oocore.WithBlockSize(w.blockNodes), oocore.WithSpillDir(r.spillDir()), oocore.WithFS(fs))
		if err != nil {
			return fmt.Errorf("traced oocore run: %w", err)
		}
		r.check(checkCoreness("traced oocore", u.oracles[i], one.Coreness))
		res.Passes += one.Passes
		res.BlockStoreBytes += one.BlockStoreBytes
		res.Cache.Hits += one.Cache.Hits
		res.Cache.Misses += one.Cache.Misses
		res.Cache.Evictions += one.Cache.Evictions
		res.Cache.PeakResidentBytes = max(res.Cache.PeakResidentBytes, one.Cache.PeakResidentBytes)
	}
	r.tr.end(root)

	wall := r.tr.get(root).dur()
	var fsTime time.Duration
	for _, name := range []string{"fs.ReadFile", "fs.Write", "fs.Sync", "fs.Rename", "fs.other"} {
		fsTime += r.tr.total(root, name)
	}
	st := res.Cache
	r.set("oocore.spill_read_s", secs(r.tr.total(root, "fs.ReadFile")))
	r.set("oocore.spill_read_bytes", float64(fs.readBytes.Load()))
	r.set("oocore.spill_write_s", secs(r.tr.total(root, "fs.Write")))
	r.set("oocore.fsync_s", secs(r.tr.total(root, "fs.Sync")))
	r.set("oocore.rename_s", secs(r.tr.total(root, "fs.Rename")))
	r.set("oocore.spill_write_bytes", float64(fs.writeBytes.Load()))
	r.set("oocore.compute_s", secs(wall-fsTime))
	r.set("oocore.read_amp", ratio(float64(fs.readBytes.Load()), float64(res.BlockStoreBytes)))
	r.set("oocore.passes", float64(res.Passes))
	r.set("oocore.evictions", float64(st.Evictions))
	r.set("oocore.hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)))
	r.set("oocore.peak_resident_over_budget", ratio(float64(st.PeakResidentBytes), float64(w.budget)))
	r.set("overhead.oocore_untraced_s", secs(u.passes.median())*float64(len(u.gs)))
	r.set("overhead.oocore_traced_s", secs(wall))
	r.env["spill_store_bytes_total"] = res.BlockStoreBytes
	return nil
}

// timingFS is a fault-free chaos.FS over the real filesystem that
// records a span per call and counts the bytes moved.
type timingFS struct {
	tr         *tracer
	parent     int
	readBytes  atomic.Int64
	writeBytes atomic.Int64
}

func (f *timingFS) timed(name string, op func() error) error {
	id := f.tr.start(name, f.parent)
	err := op()
	f.tr.end(id)
	return err
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	var data []byte
	err := f.timed("fs.ReadFile", func() (err error) {
		data, err = chaos.OS{}.ReadFile(name)
		return err
	})
	f.readBytes.Add(int64(len(data)))
	return data, err
}

func (f *timingFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	var file chaos.File
	err := f.timed("fs.other", func() (err error) {
		file, err = chaos.OS{}.OpenFile(name, flag, perm)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &timingFile{fs: f, f: file}, nil
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	return f.timed("fs.Rename", func() error { return chaos.OS{}.Rename(oldpath, newpath) })
}

func (f *timingFS) Remove(name string) error {
	return f.timed("fs.other", func() error { return chaos.OS{}.Remove(name) })
}

func (f *timingFS) ReadDir(name string) ([]os.DirEntry, error) {
	var ents []os.DirEntry
	err := f.timed("fs.other", func() (err error) {
		ents, err = chaos.OS{}.ReadDir(name)
		return err
	})
	return ents, err
}

func (f *timingFS) MkdirAll(path string, perm os.FileMode) error {
	return f.timed("fs.other", func() error { return chaos.OS{}.MkdirAll(path, perm) })
}

// timingFile times the writes, syncs and close of one open spill file.
type timingFile struct {
	fs *timingFS
	f  chaos.File
}

func (t *timingFile) Write(p []byte) (int, error) {
	var n int
	err := t.fs.timed("fs.Write", func() (err error) {
		n, err = t.f.Write(p)
		return err
	})
	t.fs.writeBytes.Add(int64(n))
	return n, err
}

func (t *timingFile) Sync() error { return t.fs.timed("fs.Sync", t.f.Sync) }

func (t *timingFile) Close() error { return t.fs.timed("fs.other", t.f.Close) }

// resetPeakRSS restarts the kernel's count of the process's peak
// resident set size (VmHWM) from its current resident size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		fields := bytes.Fields(rest)
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
