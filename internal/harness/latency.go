package harness

import (
	"time"

	"incll/internal/obs"
)

// Per-operation latency is sampled — every 8th op pays two clock reads —
// into obs.Histogram (the harness's log-linear histogram promoted to a
// first-class mergeable type; 16 linear minor buckets per power of two),
// so percentile reporting adds bounded overhead to the measured
// throughput instead of doubling the clock traffic.

// latSampleMask samples one op in 8 for latency.
const latSampleMask = 7

// latHist is one worker's latency histogram (nanosecond domain).
type latHist struct {
	h obs.Histogram
}

func (h *latHist) record(d time.Duration) {
	h.h.Record(int64(d))
}

// percentile returns the p-th percentile (0 < p ≤ 100) as a duration.
func (h *latHist) percentile(p float64) time.Duration {
	return time.Duration(h.h.Quantile(p / 100))
}

// mergeLatencies folds the per-worker histograms into one.
func mergeLatencies(hists []latHist) *latHist {
	out := &latHist{}
	for i := range hists {
		out.h.Merge(&hists[i].h)
	}
	return out
}
