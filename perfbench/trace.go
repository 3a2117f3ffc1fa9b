package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Spans of one scene, step or
// request share a trace id; Parent is the span that caused it (0 for a
// root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so a parent can be named before it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a span under a reserved id.
func (t *tracer) record(id, parent int64, trace, name string, start, end time.Time) {
	if t == nil {
		return
	}
	sp := span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// add stores a span and returns its id.
func (t *tracer) add(parent int64, trace, name string, start, end time.Time) int64 {
	id := t.newID()
	t.record(id, parent, trace, name, start, end)
	return id
}

// layerOf names a span's layer: the part of its name before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its child spans cover, in ms.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := map[string]float64{}
	for _, sp := range t.spans {
		self := sp.End - sp.Start - covered(sp, children[sp.ID])
		out[layerOf(sp.Name)] += float64(self) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return total + curE - curS
}

// write exports the spans as JSON lines, and the per-layer metrics with
// the source of each and the self time per layer as a summary beside
// them; it returns the span file's path.
func (t *tracer) write(o options, metrics map[string]metric, sources map[string]string) (string, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return "", fmt.Errorf("trace export: %w", err)
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	summary, err := json.MarshalIndent(map[string]any{
		"workload": o.workload, "seed": o.seed, "per_layer": metrics, "source": sources, "self_ms": t.selfTimes(),
	}, "", "  ")
	if err != nil {
		return "", fmt.Errorf("trace export: %w", err)
	}
	if err := os.WriteFile(base+".summary.json", summary, 0o644); err != nil {
		return "", fmt.Errorf("trace export: %w", err)
	}
	path := base + ".jsonl"
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace export: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("trace export: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace export: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace export: %w", err)
	}
	return path, nil
}
