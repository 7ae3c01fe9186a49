// Package epoch implements Fine-Grained Checkpointing's epoch machinery:
// execution is partitioned into short epochs (the paper uses 64 ms); at
// every epoch boundary all mutators are quiesced and the entire cache is
// flushed to NVM, so NVM always holds a consistent image of the state at
// the end of the most recently committed epoch.
//
// The manager owns a small durable header in the arena:
//
//	word 0: magic
//	word 1: current epoch (monotonically increasing, never reused)
//	word 2: phase (running / flushing / clean shutdown)
//	word 3: number of failed epochs recorded
//	words 8…: the failed-epoch list
//
// The epoch and phase words share one cache line, so a crash exposes either
// the old or the new (epoch, phase) pair, never a mix — the same PCSO
// granularity argument that InCLL itself relies on.
//
// Crash semantics: an epoch E is committed once the header records an epoch
// greater than E with phase "running" (that header write is explicitly
// written back and fenced after the global flush). If the process dies at
// any other moment, the epoch named by the durable header is the failed
// epoch: all of its effects must be rolled back by the caller using the
// external log and the InCLLs.
package epoch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"incll/internal/nvm"
	"incll/internal/obs"
)

const (
	magic = 0x19c11c4ec49017 // header magic ("incll checkpoint v1")

	phaseRunning  = 1
	phaseFlushing = 2
	phaseShutdown = 3

	hdrMagic  = 0
	hdrEpoch  = 1
	hdrPhase  = 2
	hdrNFail  = 3
	failBase  = nvm.WordsPerLine // failed list starts on the next line
	failWords = 1024             // capacity of the failed-epoch list

	// HeaderWords is the arena region size a Manager needs.
	HeaderWords = failBase + failWords
)

// Status describes what Open found in the arena.
type Status int

const (
	// FreshStart: the arena held no header; a new history begins.
	FreshStart Status = iota
	// CleanRestart: the previous execution shut down cleanly; nothing to
	// roll back.
	CleanRestart
	// CrashRecovered: the previous execution died mid-epoch; the failed
	// epoch has been recorded and its effects must be rolled back.
	CrashRecovered
)

func (s Status) String() string {
	switch s {
	case FreshStart:
		return "fresh-start"
	case CleanRestart:
		return "clean-restart"
	case CrashRecovered:
		return "crash-recovered"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Manager drives epochs over one arena. Workers bracket every structure
// operation with Enter/Exit; Advance stops the world, flushes the cache,
// and begins the next epoch.
type Manager struct {
	arena *nvm.Arena
	off   uint64 // header region offset

	world sync.RWMutex // held (read) by workers, (write) by Advance

	current  atomic.Uint64 // volatile mirror of the durable epoch word
	execBase uint64        // first epoch of this execution
	failed   map[uint64]bool
	failedMu sync.RWMutex

	onAdvance []func(newEpoch uint64)

	// onCommit holds the commit hooks (see OnCommit): a copy-on-write
	// slice, so registration is safe while mutators run and firing costs
	// one atomic load.
	onCommit atomic.Pointer[[]func(committed uint64)]

	advances atomic.Int64

	// sealed is set when a reshard cutover retires this store (see Seal):
	// its durable history is frozen as the donor of a completed topology
	// change, and any further boundary would fork it.
	sealed atomic.Bool

	// Instrumentation (see Instrument). The tracer and histogram are
	// nil-safe; prepStart carries the Prepare lock acquisition time to
	// Commit so the full stop-the-world window can be measured. It is
	// only touched with the world stopped.
	trace     *obs.Tracer
	stw       *obs.Histogram
	phases    *obs.PhaseSet
	shard     int
	prepStart time.Time
}

// Open attaches a Manager to the header region at off (HeaderWords words,
// reserved by the caller) and performs epoch-level crash analysis: if the
// previous execution did not shut down cleanly, its current epoch is added
// to the durable failed-epoch set. Structure-level rollback (external log,
// InCLLs) is the caller's job and is driven by IsFailed / CurrentExec.
func Open(a *nvm.Arena, off uint64) (*Manager, Status) {
	return OpenCoordinated(a, off, nil)
}

// OpenCoordinated is Open with an external commit oracle, for stores whose
// epoch boundaries are driven by a cross-store coordinator (see
// internal/shard). A coordinated advance flushes this store (Prepare),
// durably commits the epoch in the coordinator's own record, and only then
// updates this header (Commit). A crash in that window leaves the header
// saying "epoch E, flushing" for an epoch the coordinator already
// committed; committed(E) tells Open so, and the epoch's effects stand
// instead of being rolled back. A nil oracle means the store is
// self-contained: its own header is the commit record (plain Open).
func OpenCoordinated(a *nvm.Arena, off uint64, committed func(e uint64) bool) (*Manager, Status) {
	m := &Manager{arena: a, off: off, failed: make(map[uint64]bool)}

	status := FreshStart
	var resume uint64 = 0 // last epoch of previous history
	if a.Load(off+hdrMagic) == magic {
		prevEpoch := a.Load(off + hdrEpoch)
		phase := a.Load(off + hdrPhase)
		n := a.Load(off + hdrNFail)
		if n > failWords {
			panic("epoch: corrupt failed-epoch count")
		}
		for i := uint64(0); i < n; i++ {
			m.failed[a.Load(off+failBase+i)] = true
		}
		if phase == phaseFlushing && committed != nil && committed(prevEpoch) {
			// The Prepare flush completed and the coordinator durably
			// committed prevEpoch before the crash; only this header's
			// Commit write was lost. Finish the commit: behave exactly as
			// if the header had read (prevEpoch+1, running). The world was
			// stopped for the whole window, so the successor epoch is empty
			// and marking it failed below rolls back nothing.
			prevEpoch++
		}
		resume = prevEpoch
		if phase == phaseShutdown {
			status = CleanRestart
		} else {
			status = CrashRecovered
			m.recordFailed(prevEpoch, n)
		}
	}

	// Begin a new execution in a fresh epoch, one past anything the old
	// history used, and make that durable before any mutation.
	next := resume + 1
	m.execBase = next
	m.current.Store(next)
	a.Store(off+hdrMagic, magic)
	a.Store(off+hdrEpoch, next)
	a.Store(off+hdrPhase, phaseRunning)
	a.Writeback(off)
	a.Fence()
	return m, status
}

// recordFailed appends e to the durable failed-epoch list. Called during
// Open, before mutators exist.
func (m *Manager) recordFailed(e, n uint64) {
	if n >= failWords {
		panic("epoch: failed-epoch list full (increase failWords)")
	}
	m.failed[e] = true
	m.arena.Store(m.off+failBase+n, e)
	m.arena.Store(m.off+hdrNFail, n+1)
	m.arena.Writeback(m.off + failBase + n)
	m.arena.Writeback(m.off)
	m.arena.Fence()
}

// Instrument attaches observability sinks: protocol events go to tr, the
// measured stop-the-world duration of every boundary (nanoseconds, from
// Prepare's lock acquisition to just before Commit resumes the world) is
// recorded into stw, and shard tags the events. Both sinks may be nil.
// Must be called before mutators start, like OnAdvance.
func (m *Manager) Instrument(tr *obs.Tracer, stw *obs.Histogram, shard int) {
	m.trace = tr
	m.stw = stw
	m.shard = shard
}

// InstrumentPhases attaches the sampled latency-attribution timer (see
// obs.PhaseSet): Prepare charges its wait for in-flight readers to drain
// — the advancer side of the world lock — to the epoch_wait phase. nil
// detaches.
func (m *Manager) InstrumentPhases(ph *obs.PhaseSet) { m.phases = ph }

// Current returns the running epoch. Cheap; callable from any goroutine.
func (m *Manager) Current() uint64 { return m.current.Load() }

// CurrentExec returns the first epoch of this execution. A node whose
// epoch field is older than this has not been touched since before the
// last restart and may need lazy recovery.
func (m *Manager) CurrentExec() uint64 { return m.execBase }

// IsFailed reports whether e is a failed epoch whose effects must be
// discarded during recovery. Epoch 0 (pre-history) is never failed.
func (m *Manager) IsFailed(e uint64) bool {
	if e == 0 {
		return false
	}
	m.failedMu.RLock()
	v := m.failed[e]
	m.failedMu.RUnlock()
	return v
}

// LastCommitted returns the newest epoch this header has committed: the
// largest epoch before the running one that recovery did not record as
// failed (0 if none). For a self-contained store (nil oracle) this is the
// durable commit point.
func (m *Manager) LastCommitted() uint64 {
	e := m.current.Load() - 1
	for e > 0 && m.IsFailed(e) {
		e--
	}
	return e
}

// FailedCount returns the number of failed epochs in the durable set.
func (m *Manager) FailedCount() int {
	m.failedMu.RLock()
	defer m.failedMu.RUnlock()
	return len(m.failed)
}

// Enter marks the calling goroutine as inside a structure operation.
// Advance waits for all entered goroutines to Exit.
func (m *Manager) Enter() { m.world.RLock() }

// Exit ends the critical region begun by Enter.
func (m *Manager) Exit() { m.world.RUnlock() }

// OnAdvance registers a callback invoked at every epoch boundary while the
// world is stopped, after the flush, with the new epoch as argument.
// Callbacks typically splice allocator limbo lists and reset log cursors.
// Must be called before mutators start.
func (m *Manager) OnAdvance(f func(newEpoch uint64)) {
	m.onAdvance = append(m.onAdvance, f)
}

// OnCommit registers a callback invoked at every commit point — the
// moment an epoch's effects become part of the durable history — with the
// committed epoch as argument, while the world is still stopped. Commit
// fires it for the epoch just ended; Shutdown fires it for the running
// epoch (a clean shutdown makes the running epoch durable). For a store
// driven by a sharding coordinator, the local Commit runs only after the
// coordinator's global record is durable, so the hook observes globally
// committed epochs only.
//
// Unlike OnAdvance, hooks may be registered at any time, including while
// mutators run (the replication hub attaches to a live store); the list is
// copy-on-write. Hooks must not block: they run with every worker quiesced.
func (m *Manager) OnCommit(f func(committed uint64)) {
	for {
		old := m.onCommit.Load()
		var hooks []func(committed uint64)
		if old != nil {
			hooks = append(hooks, *old...)
		}
		hooks = append(hooks, f)
		if m.onCommit.CompareAndSwap(old, &hooks) {
			return
		}
	}
}

// fireCommit runs the commit hooks for epoch e.
func (m *Manager) fireCommit(e uint64) {
	if hooks := m.onCommit.Load(); hooks != nil {
		for _, f := range *hooks {
			f(e)
		}
	}
}

// Advance ends the current epoch: it stops the world, flushes every dirty
// line to NVM (committing the epoch), durably records the next epoch, runs
// the registered callbacks, and resumes the world. Returns the number of
// lines flushed.
func (m *Manager) Advance() int {
	n := m.Prepare()
	m.Commit()
	return n
}

// Prepare is the first half of Advance: it stops the world, durably marks
// the boundary, and flushes every dirty line, so the entire effect of the
// current epoch (including its undo information) is persistent — but the
// epoch is not yet committed: a crash now still attributes the in-flight
// epoch as failed and rolls it back. The world stays stopped until Commit,
// which the caller must invoke next (possibly from another goroutine — a
// sharding coordinator prepares every store, records the global commit,
// then commits every store). Returns the number of lines flushed.
func (m *Manager) Prepare() int {
	if m.sealed.Load() {
		panic("epoch: advance on a sealed manager (the store was resharded away)")
	}
	if m.phases != nil {
		// Advances are rare (one per epoch), so the wait for readers to
		// drain is recorded always, not sampled.
		t0 := time.Now()
		m.world.Lock()
		m.phases.Observe(obs.PhaseEpochWait, time.Since(t0))
	} else {
		m.world.Lock()
	}
	m.prepStart = time.Now()
	a, off := m.arena, m.off

	// Mark the boundary so a crash during the flush is attributed to the
	// epoch being flushed.
	a.Store(off+hdrPhase, phaseFlushing)
	a.Writeback(off)
	a.Fence()

	// Persist everything written during the current epoch.
	n := a.FlushAll()
	m.trace.Record(obs.EvCheckpointPrepare, m.shard, m.current.Load(), time.Since(m.prepStart), int64(n))
	return n
}

// Commit is the second half of Advance: it durably begins the next epoch
// (committing the prepared one from this store's point of view), runs the
// registered callbacks, and resumes the world. Must follow Prepare.
func (m *Manager) Commit() {
	a, off := m.arena, m.off
	cur := m.current.Load()

	// Begin the next epoch. Epoch and phase share a line, so this record
	// is atomic with respect to crashes.
	next := cur + 1
	a.Store(off+hdrEpoch, next)
	a.Store(off+hdrPhase, phaseRunning)
	a.Writeback(off)
	a.Fence()

	m.current.Store(next)
	t0 := time.Now()
	for _, f := range m.onAdvance {
		f(next)
	}
	m.fireCommit(cur)
	boundary := time.Since(t0)
	m.advances.Add(1)
	if !m.prepStart.IsZero() {
		window := time.Since(m.prepStart)
		m.prepStart = time.Time{}
		if m.stw != nil {
			m.stw.Record(int64(window))
		}
		m.trace.Record(obs.EvCheckpointCommit, m.shard, cur, window, int64(boundary))
	}
	m.world.Unlock()
}

// Advances returns how many epoch boundaries this Manager has executed.
func (m *Manager) Advances() int64 { return m.advances.Load() }

// Shutdown flushes everything and durably marks a clean shutdown. After
// Shutdown the Manager must not be used.
func (m *Manager) Shutdown() {
	m.world.Lock()
	defer m.world.Unlock()
	a, off := m.arena, m.off
	a.Store(off+hdrPhase, phaseFlushing)
	a.Writeback(off)
	a.Fence()
	a.FlushAll()
	a.Store(off+hdrPhase, phaseShutdown)
	a.Writeback(off)
	a.Fence()
	// A clean shutdown makes the running epoch part of the durable history
	// without starting a successor.
	m.fireCommit(m.current.Load())
}

// Seal freezes the manager after a reshard cutover: the store it drives
// was the donor of a completed topology change and its durable history
// must not grow past the cutover epoch. Reads (Enter/Exit) keep working
// against the frozen state; a later Prepare/Advance panics. Used by the
// reshard cutover (see internal/shard.Store.Seal and DESIGN.md §13).
func (m *Manager) Seal() {
	m.sealed.Store(true)
}
