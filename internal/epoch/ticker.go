package epoch

import "time"

// Ticker runs a callback on a fixed interval from a background goroutine —
// the paper's 64 ms checkpoint timer. The transaction manager's
// checkpointer (txn.Manager.StartTicker, which the façade's
// DB.StartCheckpointer runs) is its one production owner; the figure
// harness runs one over a bare store's Advance. Zero value is ready. Start
// and Stop are idempotent (a second Start while running is a no-op, as is
// Stop when stopped), but they must not race each other from different
// goroutines.
type Ticker struct {
	stop chan struct{}
	done chan struct{}
}

// Start begins invoking tick every interval; a no-op if already running
// (the established cadence keeps going).
func (t *Ticker) Start(interval time.Duration, tick func()) {
	if t.stop != nil {
		return
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		tk := time.NewTicker(interval)
		defer tk.Stop()
		defer close(done)
		for {
			select {
			case <-tk.C:
				tick()
			case <-stop:
				return
			}
		}
	}(t.stop, t.done)
}

// Stop halts the ticker and waits for the goroutine to exit; a no-op when
// not running.
func (t *Ticker) Stop() {
	if t.stop == nil {
		return
	}
	close(t.stop)
	<-t.done
	t.stop, t.done = nil, nil
}
