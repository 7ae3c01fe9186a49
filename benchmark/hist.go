package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear histogram of nanosecond durations: values below 64
// are exact, and every octave above is cut into 64 equal sub-buckets, so a
// bucket is never wider than 1/64 (1.6 %) of its lower edge and a reported
// quantile is within 1.6 % of some recorded sample.
// The harness's latHist quantises p50 in ~6 % steps, which is wider than
// the regression bound this benchmark gates on.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histOctaves = 40 // tops out at 2^46 ns ≈ 19 h
	histBuckets = (histOctaves + 1) * histSub
)

type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	max    uint64
}

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 - histSubBits
	if e >= histOctaves {
		return histBuckets - 1
	}
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histBounds returns the inclusive integer range bucket i covers.
func histBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i)
	}
	e := uint(i/histSub - 1)
	m := uint64(i%histSub + histSub)
	return m << e, (m+1)<<e - 1
}

func (h *hist) add(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// minBeyond is the fewest samples that must lie above a percentile for it
// to be reported (choosing-metrics §1).
const minBeyond = 10

// quantile returns the q-quantile in nanoseconds (interpolated linearly
// inside its bucket, so steady runs do not all read the same midpoint) and
// how many samples lie in higher buckets. ok is false — and the value must
// not be printed — when fewer than minBeyond samples lie beyond it.
func (h *hist) quantile(q float64) (ns float64, beyond uint64, ok bool) {
	if h.n == 0 {
		return 0, 0, false
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			lo, hi := histBounds(i)
			beyond = h.n - cum
			into := (float64(rank-(cum-c)) - 0.5) / float64(c) // position of the rank among the bucket's samples
			return float64(lo) + into*float64(hi+1-lo), beyond, beyond >= minBeyond
		}
	}
	return float64(h.max), 0, false
}

// median of a small sample set, exact (not bucketed).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
