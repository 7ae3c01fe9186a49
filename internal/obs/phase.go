package obs

import (
	"sync/atomic"
	"time"
)

// Phase names one latency-attribution bucket: where a sampled operation's
// time went (see DESIGN.md §12). The String form is the `phase` label of
// the incll_phase_seconds series.
type Phase uint8

const (
	// PhaseDescent is the tree walk and leaf work of the operation itself
	// (the final, successful attempt; wasted attempts land in PhaseRetry).
	PhaseDescent Phase = iota
	// PhaseRetry is time thrown away by optimistic-read restarts: every
	// version-check failure charges the attempt it invalidated here.
	PhaseRetry
	// PhaseEpochWait is time waiting on a store's epoch world lock — the
	// reader side (an op's Enter while a checkpoint holds the world) and
	// the advancer side (Prepare waiting for readers to drain).
	PhaseEpochWait
	// PhaseGuardWait is time waiting on the transaction commit guard:
	// commits acquiring it shared, advances acquiring it exclusively.
	PhaseGuardWait
	// PhaseGuardHold is how long an advance holds the commit guard
	// exclusively (the window during which no commit can start).
	PhaseGuardHold
	// PhaseCommitLockWait is time a commit spends taking its commit locks:
	// its worker's lock, then the stripes of the keys it read or wrote
	// (plus the per-shard epoch guards behind them).
	PhaseCommitLockWait
	// PhaseFence is the duration of a persist fence: draining pending
	// writebacks plus the emulated NVM round trip (FenceDelay).
	PhaseFence
	// PhaseAlloc is value-heap/node allocation (alloc.Handle fast path,
	// including any wilderness refill it triggers).
	PhaseAlloc

	// NumPhases is the number of phases; valid Phase values are below it.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"descent", "retry", "epoch_wait", "guard_wait",
	"guard_hold", "commit_lock_wait", "fence", "alloc",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// DefaultPhaseSample is the default op-sampling period: one op in eight is
// phase-timed, matching the harness's latency sampling.
const DefaultPhaseSample = 8

// phaseBase anchors the timer's monotonic clock; marks are nanoseconds
// since it, so they fit an atomic int64 with 0 free as "no op in flight".
var phaseBase = time.Now()

func phaseNow() int64 {
	if n := int64(time.Since(phaseBase)); n > 0 {
		return n
	}
	return 1
}

// phaseSlot is one worker's lap timer, padded to a cache line. Both fields
// are atomics so that callers sharing a worker index (the facade's
// convenience API routes everything through worker 0) race benignly — a
// collision can misattribute one sample, never corrupt or trip the race
// detector.
type phaseSlot struct {
	ops  atomic.Int64 // op arrivals (the Begin sampling clock)
	coin atomic.Int64 // site-local arrivals (the Sampled clock)
	mark atomic.Int64 // lap start (ns since phaseBase); 0 = not sampling
	_    [40]byte
}

// PhaseSet is the sampled latency-attribution timer: per-worker lap clocks
// feeding one Histogram per Phase. One op in sampleEvery is timed; on a
// sampled op the instrumented path calls Lap at each phase boundary, which
// records the time since the previous boundary and restarts the clock, so
// the phases of one op sum to its wall time with no double counting.
//
// Every method is nil-safe (a nil *PhaseSet no-ops, like *Tracer), so the
// instrumented hot paths need no configuration flags. The unsampled cost
// of Begin is one uncontended atomic add and a mask test on the worker's
// own padded slot.
type PhaseSet struct {
	mask  int64 // sampleEvery-1 (power of two)
	every int
	hists [NumPhases]Histogram
	slots []phaseSlot
}

// NewPhaseSet builds a PhaseSet for the given worker count. sampleEvery is
// rounded up to a power of two; values < 1 take DefaultPhaseSample.
func NewPhaseSet(workers, sampleEvery int) *PhaseSet {
	if workers < 1 {
		workers = 1
	}
	if sampleEvery < 1 {
		sampleEvery = DefaultPhaseSample
	}
	every := 1
	for every < sampleEvery {
		every <<= 1
	}
	return &PhaseSet{
		mask:  int64(every - 1),
		every: every,
		slots: make([]phaseSlot, workers),
	}
}

// SampleEvery reports the (rounded) sampling period; 0 for a nil set.
func (p *PhaseSet) SampleEvery() int {
	if p == nil {
		return 0
	}
	return p.every
}

func (p *PhaseSet) slot(w int) *phaseSlot {
	return &p.slots[uint(w)%uint(len(p.slots))]
}

// Begin counts one op arrival on worker w and reports whether this op is
// sampled; if so the lap clock starts and the caller must finish with End.
func (p *PhaseSet) Begin(w int) bool {
	if p == nil {
		return false
	}
	s := p.slot(w)
	if s.ops.Add(1)&p.mask != 0 {
		return false
	}
	s.mark.Store(phaseNow())
	return true
}

// Lap records the time since worker w's last boundary into ph and restarts
// the clock. A no-op when no sampled op is in flight on w, so shared inner
// code (retry sites) may call it unconditionally.
func (p *PhaseSet) Lap(w int, ph Phase) {
	if p == nil {
		return
	}
	s := p.slot(w)
	m := s.mark.Load()
	if m == 0 {
		return
	}
	now := phaseNow()
	p.hists[ph].Record(now - m)
	s.mark.Store(now)
}

// End records the final lap into ph and stops worker w's clock.
func (p *PhaseSet) End(w int, ph Phase) {
	if p == nil {
		return
	}
	m := p.slot(w).mark.Swap(0)
	if m == 0 {
		return
	}
	p.hists[ph].Record(phaseNow() - m)
}

// Sampled is an independent 1-in-sampleEvery coin for sites that time
// themselves (fence, alloc) rather than lapping an op's clock. Uses its
// own per-slot counter so it never perturbs Begin's sampling phase.
func (p *PhaseSet) Sampled(w int) bool {
	if p == nil {
		return false
	}
	return p.slot(w).coin.Add(1)&p.mask == 0
}

// Observe records a self-timed duration directly into ph (rare events —
// guard holds, fences — that are measured at their site).
func (p *PhaseSet) Observe(ph Phase, d time.Duration) {
	if p == nil {
		return
	}
	p.hists[ph].Record(int64(d))
}

// Hist returns ph's histogram (nanoseconds), or nil for a nil set.
func (p *PhaseSet) Hist(ph Phase) *Histogram {
	if p == nil {
		return nil
	}
	return &p.hists[ph]
}

// Snapshot summarizes every phase histogram, keyed by phase name.
func (p *PhaseSet) Snapshot() map[string]HistSnapshot {
	if p == nil {
		return nil
	}
	out := make(map[string]HistSnapshot, NumPhases)
	for ph := Phase(0); ph < NumPhases; ph++ {
		out[ph.String()] = p.hists[ph].Snapshot()
	}
	return out
}
