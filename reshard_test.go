package incll

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"incll/internal/crashpoint"
	"incll/internal/testutil"
)

// reshardOpts sizes a small cluster that can host both donor and target
// side by side.
func reshardOpts(shards int) Options {
	return Options{
		Shards:      shards,
		Workers:     2,
		ArenaWords:  1 << 18,
		HeapWords:   1 << 17,
		LogSegWords: 1 << 12,
		TxnSegWords: 1 << 11,
	}
}

// collect snapshots the whole DB as a map.
func collect(db *DB) map[string]uint64 {
	out := make(map[string]uint64)
	for k, v := range db.All() {
		out[string(k)] = DecodeValue(v)
	}
	return out
}

func testReshardLive(t *testing.T, from, to int) {
	db, _ := Open(reshardOpts(from))
	defer db.Close()
	const preload = 2000
	for i := uint64(0); i < preload; i++ {
		db.Put(Key(i), i)
	}
	db.Checkpoint()

	// Concurrent load throughout the reshard: worker 1 single-key writes,
	// worker 0 (the test goroutine, after Reshard returns) is quiet. The
	// writer records every write it completed; all of them must survive.
	var (
		stop    atomic.Bool
		wrote   sync.Map // key uint64 -> val uint64
		writerN atomic.Uint64
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := db.Handle(1)
		for i := uint64(0); !stop.Load(); i++ {
			k := preload + i%500
			v := 1_000_000 + i
			h.Put(Key(k), v)
			wrote.Store(k, v)
			writerN.Add(1)
		}
	}()

	res, err := db.Reshard(to)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("Reshard(%d→%d): %v", from, to, err)
	}
	if res.From != from || res.To != to || res.TopoVersion != 2 {
		t.Fatalf("result = %+v", res)
	}
	if db.Shards() != to || db.TopoVersion() != 2 {
		t.Fatalf("live topology = %d shards v%d", db.Shards(), db.TopoVersion())
	}

	// Writes that raced the cutover may have landed after Reshard returned
	// (the writer loop keeps going briefly); commit them before checking.
	db.Checkpoint()
	got := collect(db)
	for i := uint64(0); i < preload; i++ {
		want := i
		if v, ok := wrote.Load(i); ok {
			want = v.(uint64)
		}
		g, ok := got[string(Key(i))]
		if !ok {
			t.Fatalf("preloaded key %d lost across reshard", i)
		}
		if g != want && g != i {
			t.Fatalf("key %d = %d, want %d (or preload %d)", i, g, want, i)
		}
	}
	wrote.Range(func(k, v any) bool {
		g, ok := got[string(Key(k.(uint64)))]
		if !ok {
			t.Errorf("concurrent write to key %d lost across reshard", k)
			return false
		}
		// The writer overwrites each slot round-robin; the surviving value
		// must be one the writer actually wrote to that slot (any round) —
		// last-write-wins with the recorded final value in the common case.
		if g < 1_000_000 {
			t.Errorf("key %d = %d, want a writer value", k, g)
			return false
		}
		return true
	})
	if writerN.Load() == 0 {
		t.Fatal("writer made no progress during the reshard")
	}

	// The new topology keeps working: writes, transactions, another
	// checkpoint, and a crash-recovery cycle all run against the target.
	tx := db.Begin()
	tx.Put(Key(1), 11)
	tx.Put(Key(preload-1), 22)
	if err := tx.Commit(); err != nil {
		t.Fatalf("txn on new topology: %v", err)
	}
	db.Checkpoint()
	db.SimulateCrash(1.0, int64(from*1000+to))
	db2, _ := db.Reopen()
	defer db2.Close()
	if db2.Shards() != to || db2.TopoVersion() != 2 {
		t.Fatalf("recovered topology = %d shards v%d", db2.Shards(), db2.TopoVersion())
	}
	if v, _ := db2.Get(Key(1)); v != 11 {
		t.Fatalf("key 1 = %d after post-reshard recovery", v)
	}
}

func TestReshardLiveSplit(t *testing.T) { testReshardLive(t, 4, 8) }
func TestReshardLiveMerge(t *testing.T) { testReshardLive(t, 8, 4) }

func TestReshardFromUnsharded(t *testing.T) {
	db, _ := Open(Options{ArenaWords: 1 << 18, HeapWords: 1 << 17, LogSegWords: 1 << 12, TxnSegWords: 1 << 11})
	defer db.Close()
	for i := uint64(0); i < 300; i++ {
		db.Put(Key(i), i)
	}
	db.Checkpoint()
	res, err := db.Reshard(4)
	if err != nil {
		t.Fatalf("Reshard(1→4): %v", err)
	}
	if res.CopiedKeys != 300 {
		t.Fatalf("copied %d keys, want 300", res.CopiedKeys)
	}
	if db.Shards() != 4 {
		t.Fatalf("Shards() = %d", db.Shards())
	}
	for i := uint64(0); i < 300; i++ {
		if v, ok := db.Get(Key(i)); !ok || v != i {
			t.Fatalf("key %d = %d,%v after 1→4 reshard", i, v, ok)
		}
	}
}

func TestReshardValidation(t *testing.T) {
	db, _ := Open(reshardOpts(2))
	defer db.Close()
	if _, err := db.Reshard(0); err == nil {
		t.Fatal("Reshard(0) accepted")
	}
	if _, err := db.Reshard(MaxShards + 1); !errors.Is(err, ErrTooManyShards) {
		t.Fatalf("Reshard(MaxShards+1) = %v, want ErrTooManyShards", err)
	}
	if _, err := db.Reshard(2); err == nil {
		t.Fatal("Reshard to current shard count accepted")
	}
}

func TestReshardAbortLeavesDonorLive(t *testing.T) {
	db, _ := Open(reshardOpts(2))
	defer db.Close()
	for i := uint64(0); i < 200; i++ {
		db.Put(Key(i), i)
	}
	db.Checkpoint()
	boom := errors.New("boom")
	for _, point := range []string{"reshard-start", "snapshot-done", "restore-done", "pre-cutover",
		"cutover-advanced", "cutover-drained", "cutover-target-committed"} {
		crashpoint.Set(db, func(p string) error {
			if p == point {
				return boom
			}
			return nil
		})
		if _, err := db.Reshard(4); !errors.Is(err, boom) {
			t.Fatalf("abort at %q: err = %v", point, err)
		}
		if db.Shards() != 2 || db.TopoVersion() != 1 {
			t.Fatalf("abort at %q left topology %d shards v%d", point, db.Shards(), db.TopoVersion())
		}
		if p := db.ReshardProgress(); p.Active {
			t.Fatalf("abort at %q left progress active: %+v", point, p)
		}
		for i := uint64(0); i < 200; i++ {
			if v, ok := db.Get(Key(i)); !ok || v != i {
				t.Fatalf("abort at %q lost key %d (= %d,%v)", point, i, v, ok)
			}
		}
		// The donor must still accept writes and checkpoints.
		db.Put(Key(uint64(500)), 500)
		db.Checkpoint()
		db.Delete(Key(uint64(500)))
		db.Checkpoint()
	}
	// A post-commit hook error reports a completed reshard.
	crashpoint.Set(db, func(p string) error {
		if p == "cutover-manifest" {
			return boom
		}
		return nil
	})
	res, err := db.Reshard(4)
	if !errors.Is(err, boom) {
		t.Fatalf("post-commit hook error = %v", err)
	}
	if res.To != 4 || db.Shards() != 4 || db.TopoVersion() != 2 {
		t.Fatalf("post-commit hook error did not complete the reshard: %+v, %d shards v%d", res, db.Shards(), db.TopoVersion())
	}
}

func TestReshardCutsChangeStreamSubscribers(t *testing.T) {
	db, _ := Open(reshardOpts(2))
	defer db.Close()
	db.Put(Key(1), 1)
	stream := db.Changes()
	defer stream.Close()
	db.Checkpoint()
	if _, err := stream.Next(); err != nil {
		t.Fatalf("pre-reshard batch: %v", err)
	}
	if _, err := db.Reshard(4); err != nil {
		t.Fatalf("Reshard: %v", err)
	}
	// Drain whatever was already released, then expect the loss signal.
	for {
		_, err := stream.Next()
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrStreamLost) {
			t.Fatalf("stream ended with %v, want ErrStreamLost", err)
		}
		break
	}
	// A fresh subscription binds to the new topology.
	s2 := db.Changes()
	defer s2.Close()
	db.Put(Key(2), 2)
	db.Checkpoint()
	b, err := s2.Next()
	if err != nil {
		t.Fatalf("post-reshard subscription: %v", err)
	}
	_ = b
}

func TestReshardSequential(t *testing.T) {
	// Repeated reshards keep bumping the durable topology version.
	db, _ := Open(reshardOpts(2))
	defer db.Close()
	for i := uint64(0); i < 100; i++ {
		db.Put(Key(i), i)
	}
	db.Checkpoint()
	for step, to := range []int{3, 5, 2} {
		if _, err := db.Reshard(to); err != nil {
			t.Fatalf("step %d Reshard(%d): %v", step, to, err)
		}
		if db.TopoVersion() != uint64(step+2) {
			t.Fatalf("step %d topo version = %d", step, db.TopoVersion())
		}
		n := 0
		for range db.All() {
			n++
		}
		if n != 100 {
			t.Fatalf("step %d: %d keys", step, n)
		}
	}
}

func TestReshardProgressAndMetrics(t *testing.T) {
	db, _ := Open(reshardOpts(2))
	defer db.Close()
	for i := uint64(0); i < 400; i++ {
		db.Put(Key(i), i)
	}
	db.Checkpoint()
	checkSeriesSet(t, "standalone_2shards", seriesSet(t, db))
	var sawPhases []string
	crashpoint.Set(db, func(p string) error {
		prog := db.ReshardProgress()
		sawPhases = append(sawPhases, fmt.Sprintf("%s:%s", p, prog.Phase))
		return nil
	})
	res, err := db.Reshard(4)
	if err != nil {
		t.Fatalf("Reshard: %v", err)
	}
	if res.CopiedKeys != 400 || res.CopiedBytes == 0 {
		t.Fatalf("result = %+v", res)
	}
	p := db.ReshardProgress()
	if p.Active || p.Cutovers != 1 || p.From != 2 || p.To != 4 {
		t.Fatalf("final progress = %+v", p)
	}
	if len(sawPhases) == 0 {
		t.Fatal("hook saw no protocol points")
	}
	// The rebuilt registry serves the new topology's series.
	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics after reshard: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"incll_reshard_cutovers_total 1", "incll_reshard_topology_version 2", `shard="3"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics after reshard missing %q", want)
		}
	}
	if err := testutil.CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("post-reshard exposition fails promlint: %v", err)
	}

	// Folding back to two shards drops the series of shards 2 and 3: the
	// series set is again the one the DB served before it resharded.
	crashpoint.Set(db, nil)
	if _, err := db.Reshard(2); err != nil {
		t.Fatalf("Reshard(2): %v", err)
	}
	after := seriesSet(t, db)
	for _, s := range after {
		if strings.Contains(s, `shard="2"`) || strings.Contains(s, `shard="3"`) {
			t.Errorf("series %s outlived the merge back to 2 shards", s)
		}
	}
	checkSeriesSet(t, "standalone_2shards", after)
}
