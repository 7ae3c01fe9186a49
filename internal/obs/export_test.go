package obs

// BinsCount sums a bucket-count slice (the observation count of a window).
func BinsCount(bins []int64) int64 {
	var n int64
	for _, b := range bins {
		n += b
	}
	return n
}

// Active reports whether a sampled op is in flight on worker w.
func (p *PhaseSet) Active(w int) bool {
	return p != nil && p.slot(w).mark.Load() != 0
}
