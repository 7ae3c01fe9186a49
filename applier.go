package incll

// The snapshot-then-tail applier: the one implementation of the protocol
// that carries a checkpoint-consistent copy of a store somewhere else.
//
//	restore a verified snapshot (exact at its anchor epoch)
//	  → skip change entries at or below the anchor (baked into the snapshot)
//	  → apply the rest in stream order
//	  → checkpoint the target on the final chunk of each released batch
//	  → advance the applied watermark
//
// so the target's durable state is always a whole released prefix of the
// source's history. Two feeds drive it: Follower (replnet.Client's
// Bootstrap/Apply callbacks, from another process or a loopback
// ServeReplication) and DB.Reshard (an in-process subscription whose
// target is the next topology). See DESIGN.md §10.

import (
	"io"
	"sync"
	"time"

	"incll/internal/repl"
	"incll/internal/replnet"
)

// snapshotSource is what an in-process bootstrap reads: a live DB in
// production, a scripted stream in the applier's tests.
type snapshotSource interface {
	// subscribePinned opens a change subscription the journal budget will
	// not cut (see repl.Hub.SubscribePinned): a bootstrapping consumer
	// cannot take a delivery until its restore finishes, so for that
	// window lagging is by construction, not a fault.
	subscribePinned() replnet.BatchSource
	Snapshot(w io.Writer) (SnapshotInfo, error)
}

func (db *DB) subscribePinned() replnet.BatchSource { return db.hub().SubscribePinned() }

// exportPinned subscribes (pinned) and then streams a snapshot to w, in
// that order, so nothing slips between the snapshot and the returned feed:
// the feed's first batch overlaps the snapshot (at or below the returned
// anchor epoch) rather than leaving a gap.
func exportPinned(src snapshotSource, w io.Writer) (replnet.BatchSource, uint64, error) {
	feed := src.subscribePinned()
	info, err := src.Snapshot(w)
	if err != nil {
		feed.Close()
		return nil, 0, err
	}
	return feed, info.AnchorEpoch, nil
}

// applyTarget is one generation of whatever the applier lands records in.
type applyTarget struct {
	repl.Target
	// batchDone, if set, observes each released batch right after its
	// checkpoint: the batch horizon, the wall time since its first chunk,
	// and the entries (and key+value bytes) applied above the anchor. An
	// error stops the feed.
	batchDone func(horizon uint64, took time.Duration, n int, nb uint64) error
}

// applyState is a consumer's progress: everything a reader may ask about
// one applier, copied out under its lock by state().
type applyState struct {
	feed    replnet.BatchSource // in-process change feed; nil when the network drives apply
	info    SnapshotInfo        // snapshot of the current generation; its AnchorEpoch is the skip bound
	gen     uint64              // completed bootstraps
	applied uint64              // last fully applied and checkpointed released epoch
	err     error               // why the feed stopped; cleared by the next bootstrap
}

// behind is the number of epochs up to released not yet applied.
func (s applyState) behind(released uint64) uint64 {
	if released > s.applied {
		return released - s.applied
	}
	return 0
}

// applier owns the protocol state of one consumer. mu also guards the
// owner's per-generation fields (Follower.store), which an
// install callback swaps in the same critical section as the progress
// reset — a reader never pairs a new store with the old watermark.
type applier struct {
	mu   sync.RWMutex
	cond *sync.Cond // on mu's write side; broadcast at every applyState change
	applyState
	tgt applyTarget

	pend pendingBatch // touched only by the feeding goroutine
}

// pendingBatch accumulates the released batch in flight across its chunks.
type pendingBatch struct {
	start time.Time // first chunk's arrival
	n     int       // entries applied above the anchor
	nb    uint64    // their key+value bytes
}

func newApplier() *applier {
	a := &applier{}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// restore reads one snapshot stream into t — verified end to end, and
// committed by t.Checkpoint only after that — and adopts t as the current
// generation.
func (a *applier) restore(r io.Reader, t applyTarget, install func() error) (SnapshotInfo, error) {
	info, err := repl.Restore(r, t.Target)
	if err == nil {
		err = a.adopt(t, nil, info, install)
	}
	return info, err
}

// bootstrap is restore for an in-process source: a pinned subscription,
// then an online snapshot piped straight into t; the subscription becomes
// the generation's feed for tail.
func (a *applier) bootstrap(src snapshotSource, t applyTarget) (SnapshotInfo, error) {
	pr, pw := io.Pipe()
	var (
		feed    replnet.BatchSource
		expErr  error
		expDone = make(chan struct{})
	)
	go func() {
		defer close(expDone)
		feed, _, expErr = exportPinned(src, pw)
		pw.CloseWithError(expErr)
	}()
	info, err := repl.Restore(pr, t.Target)
	// Unblock the exporter before waiting for it: if the restore side
	// failed first, the exporter may be mid-Write with no reader left.
	pr.CloseWithError(err)
	<-expDone
	if err == nil {
		err = expErr
	}
	if err == nil {
		err = a.adopt(t, feed, info, nil)
	}
	if err != nil && feed != nil {
		feed.Close()
	}
	return info, err
}

// adopt makes a restored target the current generation: progress restarts
// at the snapshot's anchor. install, if non-nil, runs under mu first and
// may veto (a closed owner).
func (a *applier) adopt(t applyTarget, feed replnet.BatchSource, info SnapshotInfo, install func() error) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if install != nil {
		if err := install(); err != nil {
			return err
		}
	}
	a.tgt, a.feed, a.info = t, feed, info
	a.applied, a.err = info.AnchorEpoch, nil
	a.pend = pendingBatch{}
	a.gen++
	a.cond.Broadcast()
	return nil
}

// apply lands one chunk of the released batch ending at horizon. Only the
// batch's final chunk checkpoints the target and moves the watermark.
func (a *applier) apply(horizon uint64, final bool, ents []repl.Entry) error {
	a.mu.RLock()
	t, anchor := a.tgt, a.info.AnchorEpoch
	a.mu.RUnlock()
	if a.pend.start.IsZero() {
		a.pend.start = time.Now()
	}
	for i := range ents {
		e := &ents[i]
		if e.Epoch <= anchor {
			continue // baked into the bootstrap snapshot
		}
		var err error
		if e.Op == ChangeDelete {
			err = t.Delete(e.Key)
		} else {
			err = t.Put(e.Key, e.Val)
		}
		if err != nil {
			return err
		}
		a.pend.n++
		a.pend.nb += uint64(len(e.Key) + len(e.Val))
	}
	if !final {
		return nil
	}
	t.Checkpoint()
	p := a.pend
	a.pend = pendingBatch{}
	a.mu.Lock()
	a.applied = horizon
	a.cond.Broadcast()
	a.mu.Unlock()
	if t.batchDone != nil {
		return t.batchDone(horizon, time.Since(p.start), p.n, p.nb)
	}
	return nil
}

// tail applies the generation's feed, one released batch per delivery,
// until the watermark reaches horizon; it returns the error that stopped
// it short.
func (a *applier) tail(horizon uint64) error {
	feed := a.state().feed
	for first := true; a.state().applied < horizon; first = false {
		b, err := feed.Next()
		if first {
			// The bootstrap window is over: from here on this is an active
			// consumer, subject to the normal journal budget.
			feed.Unpin()
		}
		if err != nil {
			return err
		}
		if err := a.apply(b.Epoch, true, b.Entries); err != nil {
			return err
		}
	}
	return nil
}

// fail records why the feed stopped and wakes every waiter.
func (a *applier) fail(err error) {
	a.mu.Lock()
	a.err = err
	a.cond.Broadcast()
	a.mu.Unlock()
}

func (a *applier) state() applyState {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.applyState
}

// waitUntil blocks until pred (evaluated under mu) holds or timeout
// elapses, and reports pred's final value.
func (a *applier) waitUntil(timeout time.Duration, pred func() bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	expired := false
	t := time.AfterFunc(timeout, func() {
		a.mu.Lock()
		expired = true
		a.cond.Broadcast()
		a.mu.Unlock()
	})
	defer t.Stop()
	for !pred() && !expired {
		a.cond.Wait()
	}
	return pred()
}

// wait blocks until the watermark reaches epoch. It returns the feed's
// error if the feed stopped short of it, or a *LagError on timeout.
func (a *applier) wait(epoch uint64, timeout time.Duration) error {
	a.waitUntil(timeout, func() bool { return a.applied >= epoch || a.err != nil })
	st := a.state()
	switch {
	case st.applied >= epoch:
		return nil
	case st.err != nil:
		return st.err
	}
	return &LagError{Need: epoch, Have: st.applied}
}
