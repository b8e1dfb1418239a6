package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Parent is the ID of
// the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the length of a traced run; write
// dumps them when the run ends. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent and returns its ID.
func (t *tracer) start(name string, parent int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// get returns span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// total sums the durations of every closed span with the given name that
// descends from root (any span when root is 0).
func (t *tracer) total(root int, name string) time.Duration {
	var d time.Duration
	for _, s := range t.find(root, name) {
		d += s.dur()
	}
	return d
}

// find returns the closed spans named name that descend from root (any
// span when root is 0), in start order.
func (t *tracer) find(root int, name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name != name || s.End < 0 || !t.descends(s, root) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// descends reports whether s lies under root. Parents always precede
// their children, so the walk is bounded by the span count.
func (t *tracer) descends(s span, root int) bool {
	if root == 0 {
		return true
	}
	for p := s.Parent; p != 0; p = t.spans[p-1].Parent {
		if p == root {
			return true
		}
	}
	return false
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// sample collects durations for order statistics.
type sample []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q <= 1).
func (s sample) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := int(float64(len(c))*q+0.5) - 1
	return c[min(max(i, 0), len(c)-1)]
}

func (s sample) median() time.Duration { return s.quantile(0.5) }

// tailOK reports whether the q-quantile of s has at least ten samples
// beyond it — the rule every reported tail follows.
func (s sample) tailOK(q float64) bool { return float64(len(s))*(1-q) >= 10 }

// secs, millis, micros and nanos convert a duration to the float units
// metrics are reported in.
func secs(d time.Duration) float64   { return d.Seconds() }
func millis(d time.Duration) float64 { return float64(d) / 1e6 }
func micros(d time.Duration) float64 { return float64(d) / 1e3 }
func nanos(d time.Duration) float64  { return float64(d) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkCoreness compares a coreness vector against the oracle's.
func checkCoreness(what string, want, got []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d coreness values, oracle has %d", what, len(got), len(want))
	}
	for u := range want {
		if got[u] != want[u] {
			return fmt.Errorf("%s: node %d has coreness %d, oracle says %d", what, u, got[u], want[u])
		}
	}
	return nil
}
