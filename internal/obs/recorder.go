package obs

import (
	"sync"
	"time"
)

// RecorderPoint is one timestamped registry snapshot.
type RecorderPoint struct {
	Time   time.Time     `json:"time"`
	Values []SampleValue `json:"values"`
}

// HistoryPoint is one snapshot flattened for consumers: series values
// keyed by name{labels}, plus per-second rates for the counter series
// (delta against the previous point; absent on the first point and for
// non-monotonic series).
type HistoryPoint struct {
	Time   time.Time          `json:"time"`
	Values map[string]float64 `json:"values"`
	Rates  map[string]float64 `json:"rates,omitempty"`
}

// Recorder keeps a ring of periodic registry snapshots — the metric
// time-series behind /metrics/history. Take is cheap (one registry read),
// so a 1 s cadence costs nothing measurable; the ring bounds memory.
type Recorder struct {
	snapshot func() []SampleValue
	interval time.Duration

	mu    sync.Mutex
	ring  []RecorderPoint
	taken int // total points ever taken
	stop  chan struct{}
	done  chan struct{}
}

// NewRecorder builds a recorder keeping the last capacity points of
// snapshot (typically a Registry's Snapshot) at the given interval
// (defaults: 1 s, 600 points). snapshot is called once per point, so it
// may build its registry afresh each time.
func NewRecorder(snapshot func() []SampleValue, interval time.Duration, capacity int) *Recorder {
	if interval <= 0 {
		interval = time.Second
	}
	if capacity < 1 {
		capacity = 600
	}
	return &Recorder{snapshot: snapshot, interval: interval, ring: make([]RecorderPoint, capacity)}
}

// Take appends one snapshot now. Safe concurrently with Start's ticker.
func (r *Recorder) Take() {
	p := RecorderPoint{Time: time.Now(), Values: r.snapshot()}
	r.mu.Lock()
	r.ring[r.taken%len(r.ring)] = p
	r.taken++
	r.mu.Unlock()
}

// Start begins periodic snapshots (taking one immediately). A second Start
// without an intervening Stop is a no-op.
func (r *Recorder) Start() {
	r.mu.Lock()
	if r.stop != nil {
		r.mu.Unlock()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	r.stop, r.done = stop, done
	r.mu.Unlock()

	r.Take()
	go func() {
		defer close(done)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Take()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the ticker, keeping the recorded points readable.
func (r *Recorder) Stop() {
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop, r.done = nil, nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Points returns the retained snapshots, oldest first.
func (r *Recorder) Points() []RecorderPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.taken
	if n > len(r.ring) {
		n = len(r.ring)
	}
	out := make([]RecorderPoint, 0, n)
	start := r.taken - n
	for i := start; i < r.taken; i++ {
		out = append(out, r.ring[i%len(r.ring)])
	}
	return out
}

// History flattens the retained points and computes per-second rates for
// every counter series against its previous point.
func (r *Recorder) History() []HistoryPoint {
	points := r.Points()
	out := make([]HistoryPoint, 0, len(points))
	var prev *RecorderPoint
	for i := range points {
		p := &points[i]
		hp := HistoryPoint{Time: p.Time, Values: make(map[string]float64, len(p.Values))}
		for _, v := range p.Values {
			hp.Values[v.Key()] = v.Value
		}
		if prev != nil {
			dt := p.Time.Sub(prev.Time).Seconds()
			if dt > 0 {
				prevVals := make(map[string]float64, len(prev.Values))
				for _, v := range prev.Values {
					prevVals[v.Key()] = v.Value
				}
				for _, v := range p.Values {
					if v.Kind != "counter" {
						continue
					}
					old, ok := prevVals[v.Key()]
					if !ok || v.Value < old {
						continue // new series, or a reset — no rate
					}
					if hp.Rates == nil {
						hp.Rates = make(map[string]float64)
					}
					hp.Rates[v.Key()] = (v.Value - old) / dt
				}
			}
		}
		out = append(out, hp)
		prev = p
	}
	return out
}
