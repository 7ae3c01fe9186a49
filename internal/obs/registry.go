package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricKind distinguishes how a registered series is rendered.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered time series: a family name, an optional label
// set, and a read function (or histogram) evaluated at scrape time.
type series struct {
	name   string // family name, e.g. incll_ops_total
	labels string // rendered label pairs without braces, e.g. `op="put"`
	read   func() int64
	hist   *Histogram
	scale  float64 // recorded-unit → exported-unit factor (histograms)
}

// family groups every series sharing one metric name, carrying the single
// HELP/TYPE header the exposition format allows per name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []series
}

// Registry holds live metric bindings — closures over the process's actual
// counters, so registration never copies or double-counts — and renders
// them in Prometheus text exposition format. Families render in
// registration order; a scrape reads every value at scrape time.
// Registration is single-goroutine; rendering a fully registered Registry
// is read-only and may run concurrently.
type Registry struct {
	families []*family
	index    map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// Labels renders label key/value pairs for registration, sorted by key:
// Labels("shard", "0", "op", "put") → `op="put",shard="0"`. Values are
// escaped per the exposition format.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("obs: Labels takes key/value pairs")
	}
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(kv[i+1])
		pairs = append(pairs, fmt.Sprintf(`%s="%s"`, kv[i], v))
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

func (r *Registry) add(name, help string, kind metricKind, s series) {
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.index[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.kind, kind))
	}
	for _, old := range f.series {
		if old.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// Counter registers a monotonic series read from fn at scrape time. By
// convention name ends in _total. labels is a rendered label set (see
// Labels) or "" for none; multiple label sets may share one name.
func (r *Registry) Counter(name, help, labels string, fn func() int64) {
	r.add(name, help, kindCounter, series{name: name, labels: labels, read: fn})
}

// Gauge registers an instantaneous series read from fn at scrape time.
func (r *Registry) Gauge(name, help, labels string, fn func() int64) {
	r.add(name, help, kindGauge, series{name: name, labels: labels, read: fn})
}

// Histogram registers h under name. scale converts recorded units to
// exported units at render time (1e-9 exports nanosecond recordings as
// seconds, Prometheus's base unit; 1 exports them unchanged).
func (r *Registry) Histogram(name, help, labels string, h *Histogram, scale float64) {
	if scale == 0 {
		scale = 1
	}
	r.add(name, help, kindHistogram, series{name: name, labels: labels, hist: h, scale: scale})
}

// histExportBounds are the cumulative bucket upper bounds histograms
// export, in recorded units (powers of four from 1 Ki to 4 Gi — for a
// nanosecond domain, ~1 µs to ~4 s). Coarser than the internal 1024
// buckets on purpose: a scrape surface wants a dozen stable bounds, the
// internal resolution stays available through Quantile.
var histExportBounds = []uint64{
	1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20,
	1 << 22, 1 << 24, 1 << 26, 1 << 28, 1 << 30, 1 << 32,
}

// WritePrometheus renders every registered family in text exposition
// format (version 0.0.4): one HELP/TYPE header per family, then each
// series with its labels.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			var err error
			if f.kind == kindHistogram {
				err = writeHistSeries(w, s)
			} else {
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, braced(s.labels), s.read())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// SampleValue is one numeric reading of a registered series, taken by
// Registry.Snapshot. Histograms contribute derived series — name_count and
// name_sum (counters, sum in exported units) plus name_p50 and name_p99
// (gauges) — so a snapshot stream is entirely scalar.
type SampleValue struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"` // rendered pairs, e.g. `op="put",shard="0"`
	Kind   string  `json:"kind"`             // counter | gauge
	Value  float64 `json:"value"`
}

// Key is the series identity a time-series consumer should index by:
// the name with its rendered label set.
func (v SampleValue) Key() string { return v.Name + braced(v.Labels) }

// Snapshot reads every registered series once, in registration order. The
// Kind field tells a consumer which series are monotonic (rate-able).
func (r *Registry) Snapshot() []SampleValue {
	var out []SampleValue
	for _, f := range r.families {
		for _, s := range f.series {
			if f.kind == kindHistogram {
				h := s.hist
				out = append(out,
					SampleValue{Name: f.name + "_count", Labels: s.labels, Kind: "counter", Value: float64(h.Count())},
					SampleValue{Name: f.name + "_sum", Labels: s.labels, Kind: "counter", Value: float64(h.Sum()) * s.scale},
					SampleValue{Name: f.name + "_p50", Labels: s.labels, Kind: "gauge", Value: float64(h.Quantile(0.50)) * s.scale},
					SampleValue{Name: f.name + "_p99", Labels: s.labels, Kind: "gauge", Value: float64(h.Quantile(0.99)) * s.scale},
				)
				continue
			}
			out = append(out, SampleValue{Name: f.name, Labels: s.labels, Kind: f.kind.String(), Value: float64(s.read())})
		}
	}
	return out
}

// braced wraps a rendered label set in braces, or returns "" for none.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// joinLabels appends extra to a rendered label set.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

func writeHistSeries(w io.Writer, s series) error {
	h := s.hist
	for _, b := range histExportBounds {
		le := fmt.Sprintf(`le="%g"`, float64(b)*s.scale)
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", s.name, joinLabels(s.labels, le), h.cumulative(b)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", s.name, joinLabels(s.labels, `le="+Inf"`), h.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", s.name, braced(s.labels), float64(h.Sum())*s.scale); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.name, braced(s.labels), h.Count())
	return err
}
