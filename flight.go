package incll

// The anomaly flight recorder (see DESIGN.md §12): when a latency
// threshold is breached — a checkpoint stop-the-world spike or a sampled
// operation-phase spike — the watchdog dumps everything the DB knows to a
// directory, so the protocol steps and resource state leading into the
// anomaly survive for post-mortem even if the process is about to die.
//
// A dump is a directory flight-<reason>-<nanos>/ containing:
//
//	trace.txt      the phase-trace ring (DumpTrace), oldest first, headed
//	               by the triggering reason and measured value
//	metrics.prom   the Prometheus exposition at dump time (WriteMetrics)
//	metrics.json   the typed Metrics snapshot, attribution included
//	goroutines.txt the full goroutine profile (what was blocked, where)
//	cluster.json   the ClusterStatus document: peer table plus the
//	               epoch-timeline tail (see DESIGN.md §15)
//
// The watchdog evaluates *windowed* p99s: each tick diffs the histogram's
// bucket loads against the previous tick's, so one old spike cannot keep
// the alarm asserted forever. After a dump, a cooldown suppresses further
// dumps so a sustained anomaly produces one record, not a disk full.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"incll/internal/obs"
)

// WatchdogConfig parameterizes StartWatchdog. Zero values mean "use the
// default"; a zero threshold disables that check.
type WatchdogConfig struct {
	// STWThreshold triggers a dump when the checkpoint stop-the-world p99
	// over the last window exceeds it. 0 disables the check.
	STWThreshold time.Duration
	// OpLatencyThreshold triggers a dump when the sampled tree-descent
	// phase p99 over the last window exceeds it (descent is the phase every
	// sampled op ends with, so it tracks attributed op latency). 0 disables
	// the check; it is also inert when attribution is off.
	OpLatencyThreshold time.Duration
	// LagThreshold triggers a dump when any connected replication peer
	// trails the released horizon by more than this many epochs. 0
	// disables the check; it is inert unless this DB is serving
	// replication. Unlike the latency rules this is a level, not a
	// window: lag is already a point-in-time gauge.
	LagThreshold uint64
	// Interval is the evaluation cadence (default 1s).
	Interval time.Duration
	// Cooldown suppresses further dumps after one fires (default 1m).
	Cooldown time.Duration
	// Dir receives the dump directories. Default: $INCLL_TRACE_DIR if set
	// (the same place the crash-matrix CI artifacts go), else the OS temp
	// directory.
	Dir string
	// OnDump, if non-nil, is called after each dump with the dump
	// directory and the triggering reason ("stw", "op", or "lag"). Called
	// from the watchdog goroutine.
	OnDump func(dir, reason string)
}

func (c *WatchdogConfig) setDefaults() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Minute
	}
	if c.Dir == "" {
		c.Dir = os.Getenv("INCLL_TRACE_DIR")
	}
	if c.Dir == "" {
		c.Dir = os.TempDir()
	}
}

// StartWatchdog launches the anomaly watchdog and returns its stop
// function (idempotent; Close does not stop it). It reads the node's
// histograms and dumps the node's current store. Dump failures are
// reported through the phase trace, not returned: the watchdog must never
// take the process down.
func (db *DB) StartWatchdog(cfg WatchdogConfig) (stop func()) {
	cfg.setDefaults()
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go db.watchdogLoop(cfg, stopCh, done)
	var once bool
	return func() {
		if !once {
			once = true
			close(stopCh)
			<-done
		}
	}
}

func (db *DB) watchdogLoop(cfg WatchdogConfig, stopCh, done chan struct{}) {
	defer close(done)
	var descentHist *obs.Histogram
	if ps := db.tel.phases; ps != nil {
		descentHist = ps.Hist(obs.PhaseDescent)
	}
	stwBins := db.tel.stw.Bins()
	var descentBins []int64
	if descentHist != nil {
		descentBins = descentHist.Bins()
	}
	var lastDump time.Time
	t := time.NewTicker(cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stopCh:
			return
		case <-t.C:
		}
		reason, detail := "", ""
		cur := db.tel.stw.Bins()
		if p99 := obs.BinsQuantile(obs.BinsSub(cur, stwBins), 0.99); cfg.STWThreshold > 0 && p99 > int64(cfg.STWThreshold) {
			reason, detail = "stw", fmt.Sprintf("stw_p99=%v threshold=%v", time.Duration(p99), cfg.STWThreshold)
		}
		stwBins = cur
		if descentHist != nil {
			cur := descentHist.Bins()
			if p99 := obs.BinsQuantile(obs.BinsSub(cur, descentBins), 0.99); cfg.OpLatencyThreshold > 0 && p99 > int64(cfg.OpLatencyThreshold) && reason == "" {
				reason, detail = "op", fmt.Sprintf("descent_p99=%v threshold=%v", time.Duration(p99), cfg.OpLatencyThreshold)
			}
			descentBins = cur
		}
		node := db.tel.gen.Load()
		if cfg.LagThreshold > 0 && reason == "" {
			if srv := node.server(); srv != nil {
				var worstID string
				var worst uint64
				for _, p := range srv.PeersSnapshot() {
					if p.LagEpochs > worst {
						worst, worstID = p.LagEpochs, p.ID
					}
				}
				if worst > cfg.LagThreshold {
					reason, detail = "lag", fmt.Sprintf("max_peer_lag_epochs=%d peer=%s threshold=%d", worst, worstID, cfg.LagThreshold)
				}
			}
		}
		if reason == "" || time.Since(lastDump) < cfg.Cooldown && !lastDump.IsZero() {
			continue
		}
		lastDump = time.Now()
		dir, err := node.dumpFlightRecord(cfg.Dir, reason, detail)
		if err != nil {
			// Leave a trace event behind instead of failing: the watchdog
			// runs unattended.
			db.tel.trace.Record(obs.EvFlightDumpFailed, -1, node.currentEpoch(), 0, 0)
			continue
		}
		db.tel.trace.Record(obs.EvFlightDump, -1, node.currentEpoch(), 0, 0)
		if cfg.OnDump != nil {
			cfg.OnDump(dir, reason)
		}
	}
}

// DumpFlightRecord writes a complete flight record under dir and returns
// the dump directory it created. Usable directly (e.g. from a SIGQUIT
// handler); the watchdog calls it on threshold breaches.
func (db *DB) DumpFlightRecord(dir, reason string) (string, error) {
	return db.dumpFlightRecord(dir, reason, "")
}

// dumpFlightRecord is DumpFlightRecord plus the watchdog's measured
// detail string ("stw_p99=... threshold=..."), which goes in the
// trace.txt header so the dump states what tripped it, not just why.
func (db *DB) dumpFlightRecord(dir, reason, detail string) (string, error) {
	out := filepath.Join(dir, fmt.Sprintf("flight-%s-%d", reason, time.Now().UnixNano()))
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	writeFile := func(name string, fill func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(out, name))
		if err != nil {
			return err
		}
		if err := fill(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := writeFile("trace.txt", func(f *os.File) error {
		if _, err := fmt.Fprintf(f, "# flight record reason=%s", reason); err != nil {
			return err
		}
		if detail != "" {
			if _, err := fmt.Fprintf(f, " %s", detail); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(f); err != nil {
			return err
		}
		return db.DumpTrace(f)
	}); err != nil {
		return "", err
	}
	if err := writeFile("metrics.prom", func(f *os.File) error { return db.WriteMetrics(f) }); err != nil {
		return "", err
	}
	if err := writeFile("metrics.json", func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(db.Metrics())
	}); err != nil {
		return "", err
	}
	if err := writeFile("goroutines.txt", func(f *os.File) error {
		return pprof.Lookup("goroutine").WriteTo(f, 1)
	}); err != nil {
		return "", err
	}
	// Cluster view: the peer table and the epoch-timeline tail at dump
	// time, so replication stalls leading into the anomaly survive too.
	cs := db.clusterStatus(flightTimelineTail)
	if err := writeFile("cluster.json", func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(cs)
	}); err != nil {
		return "", err
	}
	db.tel.trace.Record(obs.EvClusterDump, -1, db.currentEpoch(), 0, int64(len(cs.Peers)))
	return out, nil
}
