package incll

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"incll/internal/obs"
	"incll/internal/testutil"
)

// TestPhaseAttributionEndToEnd drives every instrumented phase at 1-in-1
// sampling and asserts the attribution surfaces — the typed snapshot and
// the Prometheus exposition — both carry it.
func TestPhaseAttributionEndToEnd(t *testing.T) {
	for _, shards := range []int{1, 2} {
		db, _ := Open(Options{Shards: shards, ArenaWords: 1 << 22, PhaseSampleEvery: 1})
		val := bytes.Repeat([]byte{7}, 64) // out-of-place: exercises the value heap
		for i := uint64(0); i < 300; i++ {
			if _, err := db.PutBytes(Key(i), val); err != nil {
				t.Fatal(err)
			}
			db.Get(Key(i))
		}
		db.Checkpoint()
		tx := db.Begin()
		tx.Put(Key(1), 11)
		tx.Put(Key(2), 22)
		if err := tx.Commit(); err != nil {
			t.Fatalf("shards=%d: commit: %v", shards, err)
		}
		db.Checkpoint()

		m := db.Metrics()
		if !m.Phases.Enabled || m.Phases.SampleEvery != 1 {
			t.Fatalf("shards=%d: phases = %+v", shards, m.Phases)
		}
		for _, ph := range []string{"descent", "epoch_wait", "guard_wait", "guard_hold", "commit_lock_wait", "fence", "alloc"} {
			if m.Phases.Hist[ph].Count == 0 {
				t.Fatalf("shards=%d: phase %q never recorded: %+v", shards, ph, m.Phases.Hist)
			}
		}
		// Every op lap is non-negative and descent covers ≥ the op count.
		if n := m.Phases.Hist["descent"].Count; n < 600 {
			t.Fatalf("shards=%d: descent count %d, want ≥600 (300 puts + 300 gets)", shards, n)
		}

		exp := scrape(t, db)
		var phaseSeries int
		for _, s := range exp.Samples {
			if s.Name == "incll_phase_seconds_count" {
				phaseSeries++
			}
		}
		if phaseSeries != int(obs.NumPhases) {
			t.Fatalf("shards=%d: exposition has %d phase series, want %d", shards, phaseSeries, obs.NumPhases)
		}

		// Attribution histograms survive a crash + reopen, like the trace.
		db.SimulateCrash(1.0, 1)
		db2, _ := db.Reopen()
		if n := db2.Metrics().Phases.Hist["descent"].Count; n < 600 {
			t.Fatalf("shards=%d: descent count %d after reopen, want carried over", shards, n)
		}
		db2.Close()
	}
}

// TestPhaseAttributionDisabled proves the negative option really turns
// the machinery off: no histograms, no exported series, nil PhaseSet on
// the hot path.
func TestPhaseAttributionDisabled(t *testing.T) {
	db, _ := Open(Options{ArenaWords: 1 << 22, PhaseSampleEvery: -1})
	defer db.Close()
	db.Put(Key(1), 1)
	db.Checkpoint()
	if m := db.Metrics(); m.Phases.Enabled || m.Phases.Hist != nil {
		t.Fatalf("attribution disabled but Metrics has %+v", m.Phases)
	}
	exp := scrape(t, db)
	for _, s := range exp.Samples {
		if strings.HasPrefix(s.Name, "incll_phase_seconds") {
			t.Fatalf("disabled attribution exported %s", s.Name)
		}
	}
}

// checkFlightDump asserts a dump directory is complete: all four
// artifacts present, non-empty, and the exposition well-formed.
func checkFlightDump(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{"trace.txt", "metrics.prom", "metrics.json", "goroutines.txt"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("dump artifact %s: %v", name, err)
		}
		if len(b) == 0 {
			t.Fatalf("dump artifact %s is empty", name)
		}
		switch name {
		case "metrics.prom":
			if err := testutil.CheckExposition(bytes.NewReader(b)); err != nil {
				t.Fatalf("dumped exposition lint: %v", err)
			}
		case "metrics.json":
			var m Metrics
			if err := json.Unmarshal(b, &m); err != nil {
				t.Fatalf("dumped metrics.json: %v", err)
			}
		case "goroutines.txt":
			if !strings.Contains(string(b), "goroutine") {
				t.Fatalf("goroutine profile looks wrong:\n%s", b)
			}
		}
	}
}

// TestFlightRecorderDump exercises DumpFlightRecord directly.
func TestFlightRecorderDump(t *testing.T) {
	db, _ := Open(Options{ArenaWords: 1 << 22, PhaseSampleEvery: 1})
	defer db.Close()
	for i := uint64(0); i < 100; i++ {
		db.Put(Key(i), i)
	}
	db.Checkpoint()
	dir, err := db.DumpFlightRecord(t.TempDir(), "manual")
	if err != nil {
		t.Fatalf("DumpFlightRecord: %v", err)
	}
	if !strings.Contains(filepath.Base(dir), "flight-manual-") {
		t.Fatalf("dump dir %q not reason-stamped", dir)
	}
	checkFlightDump(t, dir)
}

// TestWatchdogForcedAnomaly is the acceptance test: a threshold the
// workload is guaranteed to breach must produce one complete flight
// record, and the cooldown must hold further dumps back.
func TestWatchdogForcedAnomaly(t *testing.T) {
	db, _ := Open(Options{ArenaWords: 1 << 22, PhaseSampleEvery: 1})
	defer db.Close()

	dumps := make(chan string, 4)
	stop := db.StartWatchdog(WatchdogConfig{
		STWThreshold: time.Nanosecond, // any checkpoint breaches this
		Interval:     5 * time.Millisecond,
		Cooldown:     time.Hour, // exactly one dump for the whole test
		Dir:          t.TempDir(),
		OnDump:       func(dir, reason string) { dumps <- dir + "|" + reason },
	})
	defer stop()

	deadline := time.After(10 * time.Second)
	var got string
	for got == "" {
		for i := uint64(0); i < 50; i++ {
			db.Put(Key(i), i)
		}
		db.Checkpoint()
		select {
		case got = <-dumps:
		case <-deadline:
			t.Fatal("watchdog never fired on a guaranteed breach")
		default:
		}
	}
	dir, reason, _ := strings.Cut(got, "|")
	if reason != "stw" {
		t.Fatalf("dump reason %q, want stw", reason)
	}
	checkFlightDump(t, dir)

	// The trace carries the dump event, and the cooldown held: at most the
	// one dump already consumed.
	var sawEvent bool
	for _, ev := range db.TraceEvents() {
		if ev.Kind == obs.EvFlightDump {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Fatal("flight dump left no trace event")
	}
	for i := 0; i < 5; i++ {
		db.Checkpoint()
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case d := <-dumps:
		t.Fatalf("cooldown violated: second dump %s", d)
	default:
	}
	stop()
	stop() // idempotent
}

// TestMetricsHistoryFacade drives the DB-level recorder: points
// accumulate in the background, counters get rates, and the JSON render
// is parseable.
func TestMetricsHistoryFacade(t *testing.T) {
	db, _ := Open(Options{ArenaWords: 1 << 22})
	defer db.Close()
	if db.MetricsHistory() != nil {
		t.Fatal("history non-empty before StartRecorder")
	}
	db.StartRecorder(5*time.Millisecond, 100)
	deadline := time.Now().Add(2 * time.Second)
	for len(db.MetricsHistory()) < 3 && time.Now().Before(deadline) {
		for i := uint64(0); i < 100; i++ {
			db.Put(Key(i), i)
		}
		time.Sleep(5 * time.Millisecond)
	}
	db.StopRecorder()
	hist := db.MetricsHistory()
	if len(hist) < 3 {
		t.Fatalf("recorder took %d points, want ≥3", len(hist))
	}
	last := hist[len(hist)-1]
	if last.Values["incll_keys"] != 100 {
		t.Fatalf("last point keys = %v, want 100", last.Values["incll_keys"])
	}
	var sawPutRate bool
	for _, p := range hist[1:] {
		for k := range p.Rates {
			if strings.HasPrefix(k, "incll_ops_total") {
				sawPutRate = true
			}
		}
	}
	if !sawPutRate {
		t.Fatal("no ops rate in any history point")
	}

	var buf bytes.Buffer
	if err := db.WriteMetricsHistory(&buf); err != nil {
		t.Fatalf("WriteMetricsHistory: %v", err)
	}
	var decoded []obs.HistoryPoint
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("history JSON: %v", err)
	}
	if len(decoded) != len(hist) {
		t.Fatalf("JSON has %d points, memory has %d", len(decoded), len(hist))
	}
}
