package incll

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"incll/internal/obs"
	"incll/internal/testutil"
)

// scrape renders and re-parses the DB's /metrics output, linting it on
// the way: every test that reads a value also proves the exposition is
// well-formed.
func scrape(t *testing.T, db *DB) *testutil.Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	if err := testutil.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	exp, err := testutil.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	return exp
}

// seriesSet returns the sorted name{labels} set of db's /metrics
// exposition, values dropped: the series identity a dashboard binds to.
func seriesSet(t *testing.T, db *DB) []string {
	t.Helper()
	var set []string
	for _, s := range scrape(t, db).Samples {
		kv := make([]string, 0, 2*len(s.Labels))
		for k, v := range s.Labels {
			kv = append(kv, k, v)
		}
		if l := obs.Labels(kv...); l != "" {
			set = append(set, s.Name+"{"+l+"}")
		} else {
			set = append(set, s.Name)
		}
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// checkSeriesSet compares a series set against testdata/series_<name>.txt,
// one name{labels} per line, and reports every series that appeared or
// went missing.
func checkSeriesSet(t *testing.T, name string, got []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "series_"+name+".txt"))
	if err != nil {
		t.Fatalf("series set %s: %v", name, err)
	}
	want := strings.Fields(string(b))
	for _, s := range want {
		if _, found := slices.BinarySearch(got, s); !found {
			t.Errorf("series set %s: missing %s", name, s)
		}
	}
	for _, s := range got {
		if _, found := slices.BinarySearch(want, s); !found {
			t.Errorf("series set %s: unexpected %s", name, s)
		}
	}
}

// TestMetricsSeriesSetPinned pins the /metrics series set of a 2-shard
// primary serving one follower, and of that follower: a refactor of the
// telemetry wiring must leave every series a dashboard binds to in place.
// The reshard half is in TestReshardProgressAndMetrics.
func TestMetricsSeriesSetPinned(t *testing.T) {
	primary, _ := Open(Options{Shards: 2, ArenaWords: 1 << 22})
	defer primary.Close()
	for i := uint64(0); i < 100; i++ {
		primary.Put(Key(i), i)
	}
	rs := serveRepl(t, primary)
	f := followT(t, rs.Addr().String(), FollowerOptions{ID: "f1", Options: Options{ArenaWords: 1 << 22}})
	defer f.Close()
	waitCond(t, "per-peer series for f1", func() bool {
		_, err := scrape(t, primary).Value("incll_replnet_peer_acked_epoch", "peer", "f1")
		return err == nil
	})
	checkSeriesSet(t, "primary", seriesSet(t, primary))
	checkSeriesSet(t, "follower", seriesSet(t, f.DB()))
}

// TestMetricsEndToEnd is the acceptance gate: force checkpoints, scrape,
// and assert the stop-the-world histogram and journal watermarks came
// through, on both an unsharded and a sharded DB.
func TestMetricsEndToEnd(t *testing.T) {
	for _, shards := range []int{1, 2} {
		db, _ := Open(Options{Shards: shards, ArenaWords: 1 << 22})
		for i := uint64(0); i < 500; i++ {
			db.Put(Key(i), i)
		}
		db.Get(Key(1))
		db.Delete(Key(499))
		stream := db.Changes() // attach the journal so its gauges go live
		db.Checkpoint()
		db.Checkpoint()

		exp := scrape(t, db)
		count, err := exp.Value("incll_checkpoint_stw_seconds_count")
		if err != nil {
			t.Fatalf("shards=%d: stw count: %v", shards, err)
		}
		if count < float64(2*shards) {
			t.Fatalf("shards=%d: stw histogram has %v samples, want >= %d", shards, count, 2*shards)
		}
		sum, err := exp.Value("incll_checkpoint_stw_seconds_sum")
		if err != nil || sum <= 0 {
			t.Fatalf("shards=%d: stw sum = %v, %v; want > 0", shards, sum, err)
		}
		if exp.Find("incll_checkpoint_stw_seconds_bucket") == nil {
			t.Fatalf("shards=%d: no stw buckets exported", shards)
		}

		var puts float64
		for _, s := range exp.Samples {
			if s.Name == "incll_ops_total" && s.Label("op") == "put" {
				puts += s.Value
			}
		}
		if puts != 500 {
			t.Fatalf("shards=%d: incll_ops_total{op=put} sums to %v, want 500", shards, puts)
		}

		if v, err := exp.Value("incll_journal_released_epoch"); err != nil || v == 0 {
			t.Fatalf("shards=%d: journal released epoch = %v, %v; want > 0 after checkpoints", shards, v, err)
		}
		if v, err := exp.Value("incll_journal_subscribers"); err != nil || v != 1 {
			t.Fatalf("shards=%d: journal subscribers = %v, %v; want 1", shards, v, err)
		}

		// The typed snapshot agrees with the exposition.
		m := db.Metrics()
		if m.Ops.Puts != 500 || m.Shards != shards || !m.Journal.Attached {
			t.Fatalf("shards=%d: Metrics() = %+v", shards, m)
		}
		if m.CheckpointSTW.Count != int64(count) {
			t.Fatalf("shards=%d: snapshot stw count %d != exposition %v", shards, m.CheckpointSTW.Count, count)
		}
		stream.Close()
		db.Close()
	}
}

// TestReplicaLagGauges is the replication half of the acceptance gate: a
// loopback follower serves its own applied-epoch and lag gauges, and
// after catch-up its lag reads zero while the applied-epoch watermark
// tracks the primary; the primary serves the follower's byte lag.
func TestReplicaLagGauges(t *testing.T) {
	primary, _ := Open(Options{ArenaWords: 1 << 22})
	defer primary.Close()
	for i := uint64(0); i < 300; i++ {
		primary.Put(Key(i), i)
	}
	rs := serveRepl(t, primary)
	f := followT(t, rs.Addr().String(), FollowerOptions{ID: "replica", Options: Options{ArenaWords: 1 << 22}})
	defer f.Close()
	for i := uint64(300); i < 400; i++ {
		primary.Put(Key(i), i)
	}
	primary.Checkpoint()
	if err := f.WaitWatermark(primary.ReleasedEpoch(), 15*time.Second); err != nil {
		t.Fatalf("WaitWatermark: %v", err)
	}

	exp := scrape(t, f.DB())
	applied, err := exp.Value("incll_replnet_applied_epoch")
	if err != nil || applied == 0 {
		t.Fatalf("follower applied epoch = %v, %v; want > 0", applied, err)
	}
	if lag, err := exp.Value("incll_replnet_lag_epochs"); err != nil || lag != 0 {
		t.Fatalf("follower lag after catch-up = %v, %v; want 0", lag, err)
	}
	if want := float64(f.AppliedEpoch()); applied != want {
		t.Fatalf("gauge applied epoch %v != AppliedEpoch %v", applied, want)
	}
	if _, err := scrape(t, primary).Value("incll_replnet_peer_lag_bytes", "peer", "replica"); err != nil {
		t.Fatalf("primary's follower lag bytes: %v", err)
	}
}

// TestStatsConcurrentWithWritersAndTicker is the DB.Stats regression
// test: concurrent Stats readers, writers on distinct handles, and the
// background checkpointer must coexist (run under -race), and once
// writers quiesce the aggregate equals the per-shard sum exactly.
func TestStatsConcurrentWithWritersAndTicker(t *testing.T) {
	const workers, perWorker = 4, 2000
	db, _ := Open(Options{Shards: 4, Workers: workers, ArenaWords: 1 << 22,
		EpochInterval: time.Millisecond})
	defer db.Close()
	db.StartCheckpointer()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := db.Stats()
				if st.Puts.Load() < 0 {
					panic("negative put count")
				}
				db.Metrics()
			}
		}
	}()

	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			h := db.Handle(w)
			for i := 0; i < perWorker; i++ {
				k := Key(uint64(w)<<32 | uint64(i))
				h.Put(k, uint64(i))
				h.Get(k)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	db.StopCheckpointer()

	agg := db.Stats()
	var puts, gets int64
	for i := 0; i < db.Shards(); i++ {
		puts += db.ShardStats(i).Puts.Load()
		gets += db.ShardStats(i).Gets.Load()
	}
	if agg.Puts.Load() != puts || agg.Gets.Load() != gets {
		t.Fatalf("aggregate (%d puts, %d gets) != per-shard sum (%d, %d)",
			agg.Puts.Load(), agg.Gets.Load(), puts, gets)
	}
	if puts != workers*perWorker || gets != workers*perWorker {
		t.Fatalf("counted %d puts, %d gets; want %d each", puts, gets, workers*perWorker)
	}
}

// TestTraceRecordsProtocolEvents walks a checkpoint, a crash, and a
// recovery, and asserts the phase trace captured each protocol step.
func TestTraceRecordsProtocolEvents(t *testing.T) {
	db, _ := Open(Options{Shards: 2, ArenaWords: 1 << 22})
	for i := uint64(0); i < 200; i++ {
		db.Put(Key(i), i)
	}
	db.Checkpoint()
	for i := uint64(0); i < 200; i++ {
		db.Put(Key(i), i+1) // uncommitted tail, lost at the crash
	}
	db.SimulateCrash(0.5, 42)
	db2, _ := db.Reopen()
	defer db2.Close()

	kinds := make(map[obs.EventKind]int)
	for _, ev := range db2.TraceEvents() {
		kinds[ev.Kind]++
	}
	for _, want := range []obs.EventKind{obs.EvCheckpointPrepare, obs.EvCheckpointCommit, obs.EvCoordRecord} {
		if kinds[want] == 0 {
			t.Fatalf("trace has no %v events: %v", want, kinds)
		}
	}
	var buf bytes.Buffer
	if err := db2.DumpTrace(&buf); err != nil {
		t.Fatalf("DumpTrace: %v", err)
	}
	if !strings.Contains(buf.String(), "checkpoint_commit") {
		t.Fatalf("trace dump missing checkpoint_commit:\n%s", buf.String())
	}
}

// TestMetricsScrapeDoesNotAttachJournal guards the laziness invariant: a
// scrape must never activate the change journal.
func TestMetricsScrapeDoesNotAttachJournal(t *testing.T) {
	db, _ := Open(Options{ArenaWords: 1 << 22})
	defer db.Close()
	db.Put(Key(1), 1)
	exp := scrape(t, db)
	if v, err := exp.Value("incll_journal_subscribers"); err != nil || v != 0 {
		t.Fatalf("journal subscribers = %v, %v; want 0", v, err)
	}
	if db.Metrics().Journal.Attached {
		t.Fatal("Metrics() attached the change journal")
	}
	if db.hubIfAttached() != nil {
		t.Fatal("scrape attached the hub")
	}
}

// TestExpvarSnapshot exercises the expvar adapter shape.
func TestExpvarSnapshot(t *testing.T) {
	db, _ := Open(Options{ArenaWords: 1 << 22})
	defer db.Close()
	db.Put(Key(7), 7)
	v := db.Expvar()()
	m, ok := v.(Metrics)
	if !ok {
		t.Fatalf("Expvar() returned %T, want Metrics", v)
	}
	if m.Ops.Puts != 1 {
		t.Fatalf("expvar snapshot puts = %d, want 1", m.Ops.Puts)
	}
}
