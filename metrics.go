package incll

// First-class observability (see DESIGN.md §11 and internal/obs): a typed
// point-in-time snapshot (DB.Metrics), a Prometheus text exposition of the
// same live counters (DB.WriteMetrics — examples/kvserver serves it at
// /metrics), an expvar adapter (DB.Expvar), and the phase trace
// (DB.DumpTrace / DB.TraceEvents) recording every checkpoint, recovery,
// and replication protocol event.
//
// Everything here reads counters the hot paths already maintain; a scrape
// never locks a leaf, stops the world, or touches NVM.

import (
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"incll/internal/core"
	"incll/internal/nvm"
	"incll/internal/obs"
	"incll/internal/repl"
)

// OpCounts counts store operations by kind since this DB instance opened.
type OpCounts struct {
	Puts    int64 `json:"puts"`
	Gets    int64 `json:"gets"`
	Deletes int64 `json:"deletes"`
	// Scans counts cursor refill batches: a cursor walk counts one per
	// bounded batch it loads, not one per walk or per key.
	Scans int64 `json:"scans"`
}

// UndoCounts breaks down undo-record captures: the paper's central ratio
// is how much logging stays in-cache-line (InCLLPerm + InCLLVal) versus
// falling back to the external log (ExtLog, Figure 7's metric).
type UndoCounts struct {
	InCLLPerm int64 `json:"incll_perm"`
	InCLLVal  int64 `json:"incll_val"`
	ExtLog    int64 `json:"extlog"`
}

// JournalMetrics describes the change journal (replication hub), all
// zeros until a snapshot or change-stream subscriber first attaches it.
type JournalMetrics struct {
	// Attached reports whether the hub exists (first subscriber seen).
	Attached bool `json:"attached"`
	// Subscribers is the live subscription count.
	Subscribers int `json:"subscribers"`
	// CapBytes is the configured journal byte budget.
	CapBytes uint64 `json:"cap_bytes"`
	// UnreleasedBytes is the entry volume of epochs not yet committed.
	UnreleasedBytes uint64 `json:"unreleased_bytes"`
	// BacklogBytes is the released-but-unconsumed retention.
	BacklogBytes uint64 `json:"backlog_bytes"`
	// ReleasedEpoch is the last globally committed epoch (the released
	// watermark every subscriber can read up to).
	ReleasedEpoch uint64 `json:"released_epoch"`
	// Cuts counts subscriptions cut loose by the byte budget.
	Cuts int64 `json:"cuts"`
}

// Metrics is a point-in-time snapshot of everything the DB observes about
// itself, cheap enough to take on every bench report. Counters are since
// this DB instance opened (a Reopen starts fresh); the checkpoint
// stop-the-world histogram records nanoseconds.
type Metrics struct {
	// Epoch is the running (uncommitted) epoch.
	Epoch uint64 `json:"epoch"`
	// Keys is the live key count (transient; see DB.Len).
	Keys int `json:"keys"`
	// Shards is the shard count.
	Shards int `json:"shards"`
	// Ops counts operations, summed across shards and workers.
	Ops OpCounts `json:"ops"`
	// Undo breaks down undo captures (in-cache-line vs external log).
	Undo UndoCounts `json:"undo"`
	// UndoInCLLRatio is the in-cache-line fraction of all undo captures
	// (0 when none were taken).
	UndoInCLLRatio float64 `json:"undo_incll_ratio"`
	// ValueHeapBytes counts bytes written out-of-place to the value heap.
	ValueHeapBytes int64 `json:"value_heap_bytes"`
	// LazyRecoveries counts nodes repaired lazily after a restart.
	LazyRecoveries int64 `json:"lazy_recoveries"`
	// LimboDepth is the allocator blocks freed this epoch and not yet
	// reusable (summed across shards; advisory, resets at each boundary).
	LimboDepth int64 `json:"limbo_depth"`
	// CheckpointSTW summarizes the checkpoint stop-the-world window
	// (Prepare lock to Commit unlock), in nanoseconds.
	CheckpointSTW obs.HistSnapshot `json:"checkpoint_stw_ns"`
	// NVM is the simulated memory subsystem's counters (fences,
	// writebacks, flushed lines), summed across arenas.
	NVM nvm.StatsSnapshot `json:"nvm"`
	// Txn is the transaction counters.
	Txn TxnStats `json:"txn"`
	// Journal describes the change journal, if attached.
	Journal JournalMetrics `json:"journal"`
	// Phases is the sampled latency attribution, if enabled (see
	// Options.PhaseSampleEvery and DESIGN.md §12).
	Phases PhaseMetrics `json:"phases"`
	// Propagation is the epoch propagation trace summary (replication
	// pipeline stage latencies and per-peer commit-to-apply), all zeros
	// until the node serves replication (see DESIGN.md §15).
	Propagation PropagationMetrics `json:"propagation"`
}

// PropagationMetrics summarizes the epoch propagation timeline: how long
// a committed epoch takes to move through each stage of the replication
// pipeline, and the end-to-end commit-to-apply distribution per follower.
// All intervals are stamped on the primary's own clock (single-clock,
// skew-free); values are nanoseconds.
type PropagationMetrics struct {
	// Attached reports whether the node has served replication or this
	// DB has the change journal attached.
	Attached bool `json:"attached"`
	// SampledAcks counts the (epoch × peer) ack samples recorded.
	SampledAcks int64 `json:"sampled_acks"`
	// Stages maps stage name (release_wait, queue_wait, wire, apply_ack)
	// to its latency summary.
	Stages map[string]obs.HistSnapshot `json:"stages_ns,omitempty"`
	// CommitToApply is the aggregate commit→ack distribution across peers.
	CommitToApply obs.HistSnapshot `json:"commit_to_apply_ns"`
	// PerPeer is the commit→ack distribution per follower id.
	PerPeer map[string]obs.HistSnapshot `json:"per_peer_ns,omitempty"`
}

// PhaseMetrics is the latency-attribution extension of Metrics: where a
// sampled operation's wall time went, phase by phase.
type PhaseMetrics struct {
	// Enabled reports whether attribution is on (Options.PhaseSampleEvery
	// ≥ 0).
	Enabled bool `json:"enabled"`
	// SampleEvery is the op sampling period (1 in N).
	SampleEvery int `json:"sample_every"`
	// Hist maps phase name (descent, retry, epoch_wait, guard_wait,
	// guard_hold, commit_lock_wait, fence, alloc) to its latency histogram
	// summary, in nanoseconds.
	Hist map[string]obs.HistSnapshot `json:"hist,omitempty"`
}

// Metrics returns a typed snapshot of the DB's counters, histograms, and
// gauges. Safe to call at any time, concurrently with writers and the
// background checkpointer; each counter is read atomically but the
// snapshot as a whole is not one instant (see DB.Stats).
func (db *DB) Metrics() Metrics {
	s := db.Stats()
	perm, val, ext := s.InCLLPerm.Load(), s.InCLLVal.Load(), s.LoggedNodes.Load()
	m := Metrics{
		Epoch:          db.currentEpoch(),
		Keys:           db.Len(),
		Shards:         db.Shards(),
		Ops:            OpCounts{Puts: s.Puts.Load(), Gets: s.Gets.Load(), Deletes: s.Deletes.Load(), Scans: s.Scans.Load()},
		Undo:           UndoCounts{InCLLPerm: perm, InCLLVal: val, ExtLog: ext},
		ValueHeapBytes: s.ValueHeapBytes.Load(),
		LazyRecoveries: s.LazyRecoveries.Load(),
		LimboDepth:     db.limboDepth(),
		CheckpointSTW:  db.tel.stw.Snapshot(),
		NVM:            db.NVMStats(),
		Txn:            db.TxnStats(),
	}
	if tot := perm + val + ext; tot > 0 {
		m.UndoInCLLRatio = float64(perm+val) / float64(tot)
	}
	if ps := db.tel.phases; ps != nil {
		m.Phases = PhaseMetrics{
			Enabled:     true,
			SampleEvery: ps.SampleEvery(),
			Hist:        ps.Snapshot(),
		}
	}
	if db.propagating() {
		tl := db.tel.prop
		m.Propagation = PropagationMetrics{
			Attached:      true,
			SampledAcks:   tl.Sampled(),
			CommitToApply: tl.AllHist().Snapshot(),
			PerPeer:       tl.PeerHists(),
			Stages:        make(map[string]obs.HistSnapshot, obs.NumPropStages),
		}
		for st := obs.PropStage(0); st < obs.NumPropStages; st++ {
			m.Propagation.Stages[st.String()] = tl.StageHist(st).Snapshot()
		}
	}
	if h := db.hubIfAttached(); h != nil {
		m.Journal = JournalMetrics{
			Attached:        true,
			Subscribers:     h.Subscribers(),
			CapBytes:        h.CapBytes(),
			UnreleasedBytes: h.UnreleasedBytes(),
			BacklogBytes:    h.BacklogBytes(),
			ReleasedEpoch:   h.Released(),
			Cuts:            h.Cuts(),
		}
	}
	return m
}

// WriteMetrics renders the node's live metrics (its current store's
// series) in Prometheus text exposition format (0.0.4). examples/kvserver
// serves this at /metrics; any io.Writer works. Values are read at scrape
// time from the same counters Metrics snapshots.
func (db *DB) WriteMetrics(w io.Writer) error {
	return db.tel.registry().WritePrometheus(w)
}

// Expvar returns the DB's metrics snapshot function in the shape
// expvar.Func expects:
//
//	expvar.Publish("incll", expvar.Func(db.Expvar()))
//
// The facade deliberately does not import expvar (whose init wires the
// default HTTP mux); the caller owns that decision.
func (db *DB) Expvar() func() any {
	return func() any { return db.Metrics() }
}

// TraceEvents returns a copy of the phase-trace ring, oldest first: every
// checkpoint Prepare/Commit with its measured stop-the-world window, the
// coordinator-record fence, journal release barriers, recovery and
// transaction replay, snapshot anchors, and follower applies (see
// internal/obs). The ring keeps the most recent events; on a crash-test
// failure, dump it (DumpTrace) to see the protocol steps leading in.
func (db *DB) TraceEvents() []obs.Event {
	return db.tel.trace.Events()
}

// DumpTrace writes the phase trace to w, one event per line, oldest
// first.
func (db *DB) DumpTrace(w io.Writer) error {
	return db.tel.trace.Dump(w)
}

// telemetry is one node's observability root: the phase tracer, the
// histograms, the propagation timeline and the metric recorder. Open,
// Restore and FollowPrimary each create one; every later store generation
// of the node — a Reopen, a reshard cutover, a follower re-bootstrap, a
// promotion — keeps it, so a trace, a histogram or a recorded history
// spans them all. The metric registry is not kept: registry builds it
// afresh from the current generation on every scrape.
type telemetry struct {
	trace  *obs.Tracer
	stw    *obs.Histogram     // checkpoint stop-the-world window
	phases *obs.PhaseSet      // sampled latency attribution; nil when disabled
	rtt    *obs.Histogram     // heartbeat round trips across replication peers
	prop   *obs.EpochTimeline // epoch propagation timeline (DESIGN.md §15)

	gen    atomic.Pointer[DB] // the node's current store generation
	served atomic.Bool        // a generation served replication

	mu       sync.Mutex
	peers    []string      // replication peer ids, first-seen order
	follower *Follower     // non-nil when the node follows a primary
	rec      *obs.Recorder // MetricsHistory's recorder, once started
}

// newTelemetry creates a node's root, sized by its options: the tracer and
// histograms exist before the first store opens, so recovery itself is
// captured.
func newTelemetry(opts Options) *telemetry {
	return &telemetry{
		trace:  obs.NewTracer(obs.DefaultTraceEvents),
		stw:    new(obs.Histogram),
		phases: newPhaseSet(opts),
		rtt:    new(obs.Histogram),
		prop:   obs.NewEpochTimeline(0),
	}
}

// registry builds the node's metric registry from its current generation:
// the per-shard series of today's topology, the replnet server series
// once the node served, one per-peer block per follower id in first-seen
// order, and the follower series when the node follows a primary.
func (t *telemetry) registry() *obs.Registry {
	t.mu.Lock()
	peers, f := t.peers, t.follower
	t.mu.Unlock()
	db := t.gen.Load()
	reg := obs.NewRegistry()
	db.register(reg)
	srv := db.server()
	if t.served.Load() {
		t.registerServer(reg, srv)
	}
	for _, id := range peers {
		t.registerPeer(reg, srv, id)
	}
	if f != nil {
		f.register(reg)
	}
	return reg
}

// addPeer records a replication peer id the first time it connects.
func (t *telemetry) addPeer(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !slices.Contains(t.peers, id) {
		t.peers = append(t.peers, id)
	}
}

// stores lists the per-shard core stores, indexed by shard.
func (db *DB) stores() []*core.Store {
	return db.engine().shards.Stores()
}

// limboDepth sums the allocator limbo depth across shards.
func (db *DB) limboDepth() int64 {
	var n int64
	for _, st := range db.stores() {
		n += st.LimboDepth()
	}
	return n
}

// hubIfAttached returns the change hub if one was ever attached, without
// attaching it: a metrics scrape must not activate the change journal.
func (db *DB) hubIfAttached() *repl.Hub {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	return db.replHub
}

// register binds every exported series to its live counter. Closures read
// at scrape time; nothing is copied or double-counted.
func (db *DB) register(reg *obs.Registry) {
	for i, st := range db.stores() {
		s := st.Stats()
		sh := strconv.Itoa(i)
		lbl := func(kv ...string) string { return obs.Labels(append(kv, "shard", sh)...) }
		reg.Counter("incll_ops_total", "Store operations by kind.", lbl("op", "put"), s.Puts.Load)
		reg.Counter("incll_ops_total", "Store operations by kind.", lbl("op", "get"), s.Gets.Load)
		reg.Counter("incll_ops_total", "Store operations by kind.", lbl("op", "delete"), s.Deletes.Load)
		reg.Counter("incll_ops_total", "Store operations by kind.", lbl("op", "scan"), s.Scans.Load)
		reg.Counter("incll_undo_total", "Undo-record captures by mechanism (incll_* stay in-line; extlog is the external-log fallback).",
			lbl("kind", "incll_perm"), s.InCLLPerm.Load)
		reg.Counter("incll_undo_total", "Undo-record captures by mechanism (incll_* stay in-line; extlog is the external-log fallback).",
			lbl("kind", "incll_val"), s.InCLLVal.Load)
		reg.Counter("incll_undo_total", "Undo-record captures by mechanism (incll_* stay in-line; extlog is the external-log fallback).",
			lbl("kind", "extlog"), s.LoggedNodes.Load)
		reg.Counter("incll_value_heap_bytes_total", "Bytes written out-of-place to the value heap.", lbl(), s.ValueHeapBytes.Load)
		reg.Counter("incll_lazy_recoveries_total", "Nodes repaired lazily after a restart.", lbl(), s.LazyRecoveries.Load)
		reg.Gauge("incll_alloc_limbo_depth", "Allocator blocks freed this epoch and not yet reusable.", lbl(), st.LimboDepth)
	}

	reg.Histogram("incll_checkpoint_stw_seconds",
		"Checkpoint stop-the-world window (Prepare lock to Commit unlock).", "", db.tel.stw, 1e-9)
	if ps := db.tel.phases; ps != nil {
		for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
			reg.Histogram("incll_phase_seconds",
				"Sampled operation latency attributed by phase (see DESIGN.md §12).",
				obs.Labels("phase", ph.String()), ps.Hist(ph), 1e-9)
		}
	}
	reg.Gauge("incll_epoch", "Running (uncommitted) epoch.", "", func() int64 { return int64(db.currentEpoch()) })
	reg.Gauge("incll_keys", "Live keys tracked this execution.", "", func() int64 { return int64(db.Len()) })
	reg.Gauge("incll_shards", "Shard count.", "", func() int64 { return int64(db.Shards()) })

	nvmCounter := func(read func(nvm.StatsSnapshot) int64) func() int64 {
		return func() int64 { return read(db.NVMStats()) }
	}
	reg.Counter("incll_nvm_writebacks_total", "Cache-line writebacks issued to simulated NVM.", "",
		nvmCounter(func(s nvm.StatsSnapshot) int64 { return s.Writebacks }))
	reg.Counter("incll_nvm_fences_total", "Persist fences issued.", "",
		nvmCounter(func(s nvm.StatsSnapshot) int64 { return s.Fences }))
	reg.Counter("incll_nvm_lines_persisted_total", "Cache lines made durable.", "",
		nvmCounter(func(s nvm.StatsSnapshot) int64 { return s.LinesPersisted }))
	reg.Counter("incll_nvm_global_flushes_total", "Whole-cache flushes (one per checkpoint Prepare).", "",
		nvmCounter(func(s nvm.StatsSnapshot) int64 { return s.GlobalFlushes }))

	reg.Counter("incll_txn_commits_total", "Transactions durably committed.", "",
		func() int64 { return db.TxnStats().Committed })
	reg.Counter("incll_txn_conflicts_total", "Transaction commits rejected by read validation.", "",
		func() int64 { return db.TxnStats().Conflicts })
	reg.Counter("incll_txn_replays_total", "Committed transactions re-applied by intent recovery.", "",
		func() int64 { return db.TxnStats().Replayed })

	reg.Gauge("incll_reshard_phase", "Live reshard phase (0 idle, 1 snapshot copy, 2 tail, 3 cutover).", "",
		db.rstate.phase.Load)
	reg.Gauge("incll_reshard_copied_bytes", "Bytes copied into the reshard target during the current/last snapshot phase.", "",
		db.rstate.copiedBytes.Load)
	reg.Gauge("incll_reshard_tail_lag_epochs", "Epochs the reshard tail trails the donor's released horizon.", "",
		db.rstate.lagEpochs.Load)
	reg.Counter("incll_reshard_cutovers_total", "Reshard cutovers durably committed on this DB instance.", "",
		db.rstate.cutovers.Load)
	reg.Gauge("incll_reshard_topology_version", "Live topology version (1 until the first completed reshard).", "",
		func() int64 { return int64(db.TopoVersion()) })

	hubGauge := func(read func(*repl.Hub) int64) func() int64 {
		return func() int64 {
			if h := db.hubIfAttached(); h != nil {
				return read(h)
			}
			return 0
		}
	}
	reg.Gauge("incll_journal_cap_bytes", "Change-journal byte budget (0 until attached).", "",
		hubGauge(func(h *repl.Hub) int64 { return int64(h.CapBytes()) }))
	reg.Gauge("incll_journal_unreleased_bytes", "Journal entry bytes of epochs not yet committed.", "",
		hubGauge(func(h *repl.Hub) int64 { return int64(h.UnreleasedBytes()) }))
	reg.Gauge("incll_journal_backlog_bytes", "Released journal bytes retained for lagging subscribers.", "",
		hubGauge(func(h *repl.Hub) int64 { return int64(h.BacklogBytes()) }))
	reg.Gauge("incll_journal_subscribers", "Live change-stream subscriptions.", "",
		hubGauge(func(h *repl.Hub) int64 { return int64(h.Subscribers()) }))
	reg.Gauge("incll_journal_released_epoch", "Last globally committed epoch (released watermark).", "",
		hubGauge(func(h *repl.Hub) int64 { return int64(h.Released()) }))
	reg.Counter("incll_journal_cuts_total", "Subscriptions cut loose by the journal byte budget.", "",
		hubGauge((*repl.Hub).Cuts))
}

// StartRecorder begins taking periodic registry snapshots into a ring of
// the given capacity, the backing store for MetricsHistory (kvserver
// serves it at /metrics/history). interval ≤ 0 defaults to one second,
// capacity ≤ 0 to 600 points (ten minutes at the default cadence). The
// recorder is the node's: it records across reshards and re-bootstraps.
// Idempotent while running; Close and SimulateCrash of the node's current
// store stop it.
func (db *DB) StartRecorder(interval time.Duration, capacity int) {
	t := db.tel
	t.mu.Lock()
	if t.rec == nil {
		t.rec = obs.NewRecorder(func() []obs.SampleValue { return t.registry().Snapshot() }, interval, capacity)
	}
	r := t.rec
	t.mu.Unlock()
	r.Start()
}

// StopRecorder stops the periodic snapshotter, if running. The recorded
// history stays readable.
func (db *DB) StopRecorder() {
	if r := db.recorder(); r != nil {
		r.Stop()
	}
}

// recorder returns the node's recorder, nil until StartRecorder.
func (db *DB) recorder() *obs.Recorder {
	db.tel.mu.Lock()
	defer db.tel.mu.Unlock()
	return db.tel.rec
}

// MetricsHistory returns the recorded time-series, oldest first: every
// metric's value at each snapshot instant plus per-second rates for
// counters. Empty until StartRecorder runs.
func (db *DB) MetricsHistory() []obs.HistoryPoint {
	r := db.recorder()
	if r == nil {
		return nil
	}
	return r.History()
}

// WriteMetricsHistory renders MetricsHistory as JSON.
func (db *DB) WriteMetricsHistory(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(db.MetricsHistory())
}
