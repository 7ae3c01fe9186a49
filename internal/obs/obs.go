// Package obs is the observability substrate: striped counters, gauges, a
// mergeable log-linear histogram, a ring-buffer phase tracer, and a small
// registry that renders everything in Prometheus text exposition format.
//
// The package is dependency-free (stdlib only) and imports nothing from the
// rest of the module, so every layer — epoch, core, shard, repl, harness —
// can publish into it without cycles. Hot-path cost rules:
//
//   - Counter.Add is one relaxed atomic add on a padded per-stripe cell;
//     nothing heavier is permitted inside a leaf-locked region.
//   - Histogram.Record is two atomic adds plus a bucket index computation;
//     callers on hot paths must sample (the harness records 1-in-8).
//   - Tracer.Record takes a mutex and is reserved for rare protocol events
//     (epoch boundaries, recovery, resync) — never per-operation.
package obs

import "sync/atomic"

// stripes is the number of padded cells a Counter spreads writers across.
// Eight covers the worker counts the harness runs without letting the
// zero-value struct get large.
const stripes = 8

// cell pads one atomic to a cache line so adjacent stripes never false-share.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonic event counter striped across padded cells so that
// workers incrementing concurrently do not bounce a shared cache line. The
// zero value is ready to use.
type Counter struct {
	cells [stripes]cell
}

// Add increments the counter by n on worker w's stripe. w is any stable
// per-goroutine index (a worker/handle number); correctness does not depend
// on it, only contention does.
func (c *Counter) Add(w int, n int64) {
	c.cells[uint(w)%stripes].v.Add(n)
}

// Load returns the current total across all stripes. Not a snapshot — the
// stripes are read one by one — but each stripe is itself monotonic, so the
// result is bounded by values the counter actually passed through.
func (c *Counter) Load() int64 {
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}
