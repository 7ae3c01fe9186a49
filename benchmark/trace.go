package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval. Spans are recorded by the benchmark around
// its calls into each layer (in-program spans are a later change), kept in
// memory, and written once when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// keepOpSpan is the duration above which an op span is kept individually;
// shorter ones are only folded into the per-name histograms.
const keepOpSpan = 100 * time.Microsecond

// tracer is used from one goroutine (the traced pass has one client).
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // ids of the spans begun and not yet ended, innermost last
	cur    span  // copy of the innermost open span (zero at the root): ops read it on every call
	nextID int
	total  uint64 // spans recorded, folded ones included
	ops    map[string]*hist
}

func newTracer() *tracer { return &tracer{t0: time.Now(), ops: map[string]*hist{}} }

// index finds a kept span by id (ids ascend in t.spans).
func (t *tracer) index(id int) int {
	return sort.Search(len(t.spans), func(i int) bool { return t.spans[i].ID >= id })
}

// begin opens a span under the innermost open one. An empty layer inherits
// the parent's.
func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return 0
	}
	if layer == "" {
		layer = t.cur.Layer
	}
	t.nextID++
	t.total++
	t.cur = span{ID: t.nextID, Parent: t.cur.ID, Name: name, Layer: layer, Start: int64(time.Since(t.t0))}
	t.spans = append(t.spans, t.cur)
	t.open = append(t.open, t.nextID)
	return t.nextID
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[t.index(id)].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	t.cur = span{}
	if len(t.open) > 0 {
		t.cur = t.spans[t.index(t.open[len(t.open)-1])]
	}
}

// op records a finished operation span under the innermost open span (a
// rung, or a crash cycle), folding it into that span's per-name histogram.
func (t *tracer) op(name string, start time.Time, d time.Duration) {
	parent := t.cur
	t.nextID++
	t.total++
	key := parent.Name + "/op." + name
	h := t.ops[key]
	if h == nil {
		h = new(hist)
		t.ops[key] = h
	}
	h.add(d)
	if d > keepOpSpan {
		s := int64(start.Sub(t.t0))
		t.spans = append(t.spans, span{ID: t.nextID, Parent: parent.ID, Name: "op." + name, Layer: parent.Layer, Start: s, End: s + int64(d)})
	}
}

type opSummary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns,omitempty"`
	P99Ns  float64 `json:"p99_ns,omitempty"`
	MaxNs  uint64  `json:"max_ns"`
}

type traceFile struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Spans    []span               `json:"spans"`
	Folded   map[string]opSummary `json:"folded_op_spans"`
	Total    uint64               `json:"spans_recorded"`
}

func (t *tracer) write(dir, workload string, seed uint64) error {
	f := traceFile{Workload: workload, Seed: seed, Spans: t.spans, Folded: map[string]opSummary{}, Total: t.total}
	for k, h := range t.ops {
		s := opSummary{Count: h.n, MeanNs: h.mean(), MaxNs: h.max}
		if v, _, ok := h.quantile(0.5); ok {
			s.P50Ns = v
		}
		if v, _, ok := h.quantile(0.99); ok {
			s.P99Ns = v
		}
		f.Folded[k] = s
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), b, 0o644)
}
