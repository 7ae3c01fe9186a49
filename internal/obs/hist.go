package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a mergeable log-linear histogram (HDR-style: 16 linear
// minor buckets per power of two, nanosecond domain by convention). It is
// the harness's latency histogram promoted to a first-class concurrent
// type: Record is two atomic adds plus an index computation, Merge and the
// quantile queries are read-side only, and the zero value is ready to use.
//
// Resolution: values below 16 are exact; above that the relative quantile
// error is bounded by the minor-bucket width, 1/16 ≈ 6.25% of the value
// (see TestHistogramQuantileBounds). The top bucket absorbs everything
// ≥ 2^63-ish; recorded negatives clamp to zero.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// HistBuckets is the fixed bucket count of a Histogram.
const HistBuckets = 1024

// HistBucketOf maps a non-negative value to its log-linear bucket: values
// below 16 are exact; above that the top four bits after the MSB select
// one of 16 linear buckets per power of two.
func HistBucketOf(v uint64) int {
	if v < 16 {
		return int(v)
	}
	k := bits.Len64(v)            // 2^(k-1) <= v < 2^k, k >= 5
	minor := (v >> (k - 5)) & 0xF // top 4 bits after the MSB
	idx := (k-4)*16 + int(minor)  // k=5 starts at bucket 16
	if idx >= HistBuckets {
		idx = HistBuckets - 1
	}
	return idx
}

// HistBucketMid is the representative (midpoint) value of a bucket.
func HistBucketMid(idx int) uint64 {
	if idx < 16 {
		return uint64(idx)
	}
	k := idx/16 + 4
	minor := uint64(idx % 16)
	step := uint64(1) << (k - 5)
	return (16+minor)*step + step/2
}

// histBucketUpper is the exclusive upper edge of a bucket (the smallest
// value that lands in the next bucket). Used for cumulative ≤-bound export.
func histBucketUpper(idx int) uint64 {
	if idx < 16 {
		return uint64(idx) + 1
	}
	k := idx/16 + 4
	minor := uint64(idx % 16)
	step := uint64(1) << (k - 5)
	return (16 + minor + 1) * step
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	u := uint64(v)
	if v < 0 {
		u, v = 0, 0
	}
	h.buckets[HistBucketOf(u)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Merge folds o's observations into h. Equivalent — bucket-exactly — to
// having recorded the union of both observation streams into h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all recorded observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns the q-quantile (0 < q ≤ 1) as a representative bucket
// midpoint, or 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			return int64(HistBucketMid(i))
		}
	}
	return int64(HistBucketMid(HistBuckets - 1))
}

// Max returns the representative value of the highest non-empty bucket.
func (h *Histogram) Max() int64 {
	for i := HistBuckets - 1; i >= 0; i-- {
		if h.buckets[i].Load() != 0 {
			return int64(HistBucketMid(i))
		}
	}
	return 0
}

// HistSnapshot is a plain-value summary of a Histogram, for typed metric
// snapshots and bench JSON.
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Bins returns a copy of the raw bucket counts. Subtracting two Bins
// snapshots of a live histogram gives the observation counts of the
// interval between them; BinsQuantile and friends summarize such deltas
// (the harness's per-second latency timelines and the anomaly watchdog's
// windowed p99 are built on this).
func (h *Histogram) Bins() []int64 {
	out := make([]int64, HistBuckets)
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// BinsQuantile returns the q-quantile (0 < q ≤ 1) of a bucket-count slice
// as a representative bucket midpoint, or 0 when the slice is empty.
// Negative counts (a racy delta) are treated as zero.
func BinsQuantile(bins []int64, q float64) int64 {
	var n int64
	for _, b := range bins {
		if b > 0 {
			n += b
		}
	}
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i, b := range bins {
		if b > 0 {
			seen += b
		}
		if seen > rank {
			return int64(HistBucketMid(i))
		}
	}
	return int64(HistBucketMid(len(bins) - 1))
}

// BinsSub returns cur−old element-wise: the observation counts of the
// window between two Bins snapshots of the same histogram.
func BinsSub(cur, old []int64) []int64 {
	out := make([]int64, len(cur))
	for i := range cur {
		out[i] = cur[i]
		if i < len(old) {
			out[i] -= old[i]
		}
	}
	return out
}

// cumulative returns the count of observations ≤ bound (a value in the
// histogram's recording domain), by summing every bucket whose upper edge
// fits under the bound. Buckets straddling the bound are excluded, so the
// result is a lower bound consistent with Prometheus's ≤ semantics.
func (h *Histogram) cumulative(bound uint64) int64 {
	var seen int64
	for i := 0; i < HistBuckets; i++ {
		if histBucketUpper(i) > bound+1 {
			break
		}
		seen += h.buckets[i].Load()
	}
	return seen
}
