package incll

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"incll/internal/core"
	"incll/internal/epoch"
	"incll/internal/nvm"
	"incll/internal/testutil"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	db, info := Open(Options{})
	if info.Status != epoch.FreshStart {
		t.Fatalf("status %v", info.Status)
	}
	for i := uint64(0); i < 1000; i++ {
		db.Put(Key(i), i*2)
	}
	db.Checkpoint()
	// Doomed work.
	for i := uint64(0); i < 1000; i++ {
		db.Put(Key(i), 0xDEAD)
	}
	db.SimulateCrash(0.5, 7)
	db2, info2 := db.Reopen()
	if info2.Status != epoch.CrashRecovered {
		t.Fatalf("reopen status %v", info2.Status)
	}
	for i := uint64(0); i < 1000; i++ {
		if v, ok := db2.Get(Key(i)); !ok || v != i*2 {
			t.Fatalf("key %d = %d,%v want %d", i, v, ok, i*2)
		}
	}
}

func TestFacadeCleanClose(t *testing.T) {
	db, _ := Open(Options{})
	db.Put([]byte("durable"), 1)
	db.Close()
	db.SimulateCrash(0, 1) // total power loss after clean shutdown
	db2, info := db.Reopen()
	if info.Status != epoch.CleanRestart {
		t.Fatalf("status %v", info.Status)
	}
	if v, ok := db2.Get([]byte("durable")); !ok || v != 1 {
		t.Fatalf("value lost: %d,%v", v, ok)
	}
	if n := db2.RebuildLen(); n != 1 {
		t.Fatalf("RebuildLen = %d", n)
	}
}

func TestFacadeScanAndHandles(t *testing.T) {
	db, _ := Open(Options{Workers: 2})
	h0, h1 := db.Handle(0), db.Handle(1)
	done := make(chan struct{})
	go func() {
		for i := uint64(0); i < 500; i++ {
			h0.Put(Key(i), i)
		}
		close(done)
	}()
	for i := uint64(500); i < 1000; i++ {
		h1.Put(Key(i), i)
	}
	<-done
	var n uint64
	for _, v := range db.All() {
		if DecodeValue(v) != n {
			t.Fatalf("scan value %d at position %d", DecodeValue(v), n)
		}
		n++
	}
	if n != 1000 {
		t.Fatalf("scan visited %d", n)
	}
}

func TestFacadeCheckpointerTicker(t *testing.T) {
	db, _ := Open(Options{EpochInterval: 2e6})
	db.StartCheckpointer()
	for i := uint64(0); i < 50000; i++ {
		db.Put(Key(i%1000), i)
	}
	db.StopCheckpointer()
	if db.Stats().Puts.Load() != 50000 {
		t.Fatalf("puts = %d", db.Stats().Puts.Load())
	}
}

func TestFacadeNVMStats(t *testing.T) {
	db, _ := Open(Options{})
	db.Put(Key(1), 1)
	db.Checkpoint()
	s := db.NVMStats()
	if s.GlobalFlushes == 0 || s.LinesPersisted == 0 {
		t.Fatalf("stats: %v", s)
	}
}

// TestFacadeAddsNoPersistenceWork pins the one-shard DB to the paper's
// single store: the same deterministic op sequence, with periodic
// checkpoints, on Open(Options{Shards: 1}) and on a bare core.Store over an
// arena of the same size must write back, fence and persist exactly the
// same lines. A checkpoint coordinator (or any other façade-side durable
// write) at one shard shows up here as extra fences.
func TestFacadeAddsNoPersistenceWork(t *testing.T) {
	const (
		arenaWords = 1 << 22
		logSeg     = 1 << 16
		txnSeg     = 1 << 12
	)
	type kv interface {
		Put(k []byte, v uint64) bool
		Delete(k []byte) bool
		Get(k []byte) (uint64, bool)
	}
	run := func(s kv, checkpoint func() int) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 20000; i++ {
			k := Key(uint64(rng.Intn(3000)))
			switch rng.Intn(4) {
			case 0:
				s.Put(k, rng.Uint64()) // almost always ≥ 2^40: a value-heap block
			case 1:
				s.Put(k, uint64(rng.Intn(1000))) // inline in the leaf
			case 2:
				s.Delete(k)
			default:
				s.Get(k)
			}
			if i%1000 == 999 {
				checkpoint()
			}
		}
	}

	db, info := Open(Options{Shards: 1, ArenaWords: arenaWords, LogSegWords: logSeg, TxnSegWords: txnSeg})
	if len(info.Shards) != 1 {
		t.Fatalf("one-shard DB reported %d shard recoveries, want 1", len(info.Shards))
	}
	before := db.NVMStats()
	run(db.Handle(0), db.Checkpoint)
	facade := db.NVMStats().Sub(before)

	arena := nvm.New(nvm.Config{Words: arenaWords})
	store, _ := core.Open(arena, core.Config{LogSegWords: logSeg, TxnSegWords: txnSeg, HeapWords: arenaWords / 2})
	before = arena.Stats().Snapshot()
	run(store.Handle(0), store.Advance)
	bare := arena.Stats().Snapshot().Sub(before)

	if facade.Fences != bare.Fences || facade.Writebacks != bare.Writebacks || facade.LinesPersisted != bare.LinesPersisted {
		t.Fatalf("one-shard DB did more persistence work than a bare store:\n"+
			"  DB:    %d fences, %d writebacks, %d lines persisted\n"+
			"  store: %d fences, %d writebacks, %d lines persisted",
			facade.Fences, facade.Writebacks, facade.LinesPersisted,
			bare.Fences, bare.Writebacks, bare.LinesPersisted)
	}
	if bare.Fences == 0 || bare.LinesPersisted == 0 {
		t.Fatalf("op sequence did no persistence work: %+v", bare)
	}
}

func TestShardedFacadeCrashRecovery(t *testing.T) {
	db, info := Open(Options{Shards: 4})
	if info.Status != epoch.FreshStart || len(info.Shards) != 4 {
		t.Fatalf("open: status %v, %d shard infos", info.Status, len(info.Shards))
	}
	for i := uint64(0); i < 2000; i++ {
		db.Put(Key(i), i*2)
	}
	db.Checkpoint()
	// Doomed work.
	for i := uint64(0); i < 2000; i++ {
		db.Put(Key(i), 0xDEAD)
	}
	db.SimulateCrash(0.5, 7)
	db2, info2 := db.Reopen()
	if info2.Status != epoch.CrashRecovered {
		t.Fatalf("reopen status %v", info2.Status)
	}
	for i, sr := range info2.Shards {
		if sr.Epoch != info2.Shards[0].Epoch {
			t.Fatalf("shard %d recovered to epoch %d, shard 0 to %d", i, sr.Epoch, info2.Shards[0].Epoch)
		}
	}
	for i := uint64(0); i < 2000; i++ {
		if v, ok := db2.Get(Key(i)); !ok || v != i*2 {
			t.Fatalf("key %d = %d,%v want %d", i, v, ok, i*2)
		}
	}
}

func TestShardedFacadeScanMergesInOrder(t *testing.T) {
	db, _ := Open(Options{Shards: 4, Workers: 2})
	h0, h1 := db.Handle(0), db.Handle(1)
	done := make(chan struct{})
	go func() {
		for i := uint64(0); i < 500; i++ {
			h0.Put(Key(i), i)
		}
		close(done)
	}()
	for i := uint64(500); i < 1000; i++ {
		h1.Put(Key(i), i)
	}
	<-done
	var n uint64
	for _, v := range db.All() {
		if DecodeValue(v) != n {
			t.Fatalf("scan value %d at position %d", DecodeValue(v), n)
		}
		n++
	}
	if n != 1000 {
		t.Fatalf("scan visited %d", n)
	}
	if db.Shards() != 4 {
		t.Fatalf("Shards() = %d", db.Shards())
	}
}

func TestShardedFacadeCleanClose(t *testing.T) {
	db, _ := Open(Options{Shards: 2})
	db.Put([]byte("durable"), 1)
	db.Close()
	db2, info := db.Reopen()
	if info.Status != epoch.CleanRestart {
		t.Fatalf("status %v", info.Status)
	}
	if v, ok := db2.Get([]byte("durable")); !ok || v != 1 {
		t.Fatalf("value lost: %d,%v", v, ok)
	}
	if n := db2.RebuildLen(); n != 1 {
		t.Fatalf("RebuildLen = %d", n)
	}
}

func TestShardedFacadeCheckpointerAndStats(t *testing.T) {
	db, _ := Open(Options{Shards: 2, EpochInterval: 2e6})
	db.StartCheckpointer()
	for i := uint64(0); i < 20000; i++ {
		db.Put(Key(i%1000), i)
	}
	db.StopCheckpointer()
	if db.Stats().Puts.Load() != 20000 {
		t.Fatalf("aggregate puts = %d", db.Stats().Puts.Load())
	}
	perShard := int64(0)
	for i := 0; i < db.Shards(); i++ {
		perShard += db.ShardStats(i).Puts.Load()
	}
	if perShard != 20000 {
		t.Fatalf("per-shard puts sum to %d", perShard)
	}
	db.Checkpoint()
	if s := db.NVMStats(); s.GlobalFlushes == 0 || s.LinesPersisted == 0 {
		t.Fatalf("stats: %v", s)
	}
}

func TestFacadeTxnCommitDurableAcrossCrash(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db, _ := Open(Options{Shards: shards})
		for i := uint64(0); i < 8; i++ {
			db.Put(Key(i), 100)
		}
		db.Checkpoint()

		tx := db.Begin()
		a, _ := tx.Get(Key(0))
		b, _ := tx.Get(Key(1))
		tx.Put(Key(0), a-30)
		tx.Put(Key(1), b+30)
		if err := tx.Commit(); err != nil {
			t.Fatalf("shards=%d: commit: %v", shards, err)
		}
		if st := db.TxnStats(); st.Committed != 1 {
			t.Fatalf("shards=%d: committed = %d", shards, st.Committed)
		}

		db.SimulateCrash(0, 3) // lose every dirty line; no checkpoint ran
		db2, info := db.Reopen()
		if info.TxnsReplayed != 1 {
			t.Fatalf("shards=%d: replayed %d, want 1", shards, info.TxnsReplayed)
		}
		if v, _ := db2.Get(Key(0)); v != 70 {
			t.Fatalf("shards=%d: key 0 = %d, want 70", shards, v)
		}
		if v, _ := db2.Get(Key(1)); v != 130 {
			t.Fatalf("shards=%d: key 1 = %d, want 130", shards, v)
		}
	}
}

func TestFacadeApplyBatchAndAbort(t *testing.T) {
	db, _ := Open(Options{Shards: 2})
	b := &Batch{}
	b.Put(Key(1), 11)
	b.Put(Key(2), 22)
	b.Delete(Key(3))
	if err := db.Apply(b); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if v, _ := db.Get(Key(1)); v != 11 {
		t.Fatalf("key 1 = %d", v)
	}
	if v, _ := db.Get(Key(2)); v != 22 {
		t.Fatalf("key 2 = %d", v)
	}

	tx := db.Begin()
	tx.Put(Key(9), 9)
	tx.Abort()
	if _, ok := db.Get(Key(9)); ok {
		t.Fatal("aborted write visible")
	}
}

func TestFacadeTxnConflict(t *testing.T) {
	db, _ := Open(Options{Workers: 2})
	db.Put(Key(1), 5)
	tx := db.BeginWorker(0)
	v, _ := tx.Get(Key(1))
	tx.Put(Key(1), v+1)

	tx2 := db.BeginWorker(1)
	tx2.Put(Key(1), 50)
	if err := tx2.Commit(); err != nil {
		t.Fatalf("tx2: %v", err)
	}
	if err := tx.Commit(); err != ErrConflict {
		t.Fatalf("commit = %v, want ErrConflict", err)
	}
	if st := db.TxnStats(); st.Conflicts != 1 {
		t.Fatalf("conflicts = %d", st.Conflicts)
	}
}

func TestFacadeTxnWithCheckpointerRunning(t *testing.T) {
	db, _ := Open(Options{Shards: 2, EpochInterval: 1e6})
	for i := uint64(0); i < 16; i++ {
		db.Put(Key(i), 1000)
	}
	db.StartCheckpointer()
	for i := 0; i < 2000; i++ {
		tx := db.Begin()
		a, _ := tx.Get(Key(uint64(i % 16)))
		b, _ := tx.Get(Key(uint64((i + 1) % 16)))
		tx.Put(Key(uint64(i%16)), a-1)
		tx.Put(Key(uint64((i+1)%16)), b+1)
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	db.StopCheckpointer()
	var sum uint64
	for i := uint64(0); i < 16; i++ {
		v, _ := db.Get(Key(i))
		sum += v
	}
	if sum != 16*1000 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestOptionsShardsValidation(t *testing.T) {
	// Shards beyond MaxShards used to clamp silently; now they are a typed
	// validation error — Validate returns it, Open panics with it.
	err := Options{Shards: MaxShards + 1}.Validate()
	if !errors.Is(err, ErrTooManyShards) {
		t.Fatalf("Validate() = %v, want ErrTooManyShards", err)
	}
	if err := (Options{Shards: MaxShards}).Validate(); err != nil {
		t.Fatalf("Validate(MaxShards) = %v", err)
	}
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrTooManyShards) {
			t.Fatalf("Open panicked with %v, want ErrTooManyShards", r)
		}
	}()
	Open(Options{Shards: MaxShards + 1})
	t.Fatal("Open accepted Shards > MaxShards")
}

func TestOpenBeyond64ShardsAndCrashRecover(t *testing.T) {
	// Regression for the old 64-shard ceiling: internal/txn encoded shard
	// lock/write sets as one uint64 bitmask, so a wider cluster used to
	// clamp. The generalized shard sets must open, commit cross-shard
	// transactions on, crash, and recover a 128-shard cluster.
	opts := Options{
		Shards:      128,
		Workers:     2,
		ArenaWords:  1 << 16,
		HeapWords:   1 << 15,
		LogSegWords: 1 << 12,
		TxnSegWords: 1 << 10,
	}
	db, info := Open(opts)
	if db.Shards() != 128 {
		t.Fatalf("Shards() = %d, want 128", db.Shards())
	}
	if len(info.Shards) != 128 {
		t.Fatalf("%d shard recovery infos", len(info.Shards))
	}
	for i := uint64(0); i < 500; i++ {
		db.Put(Key(i), i)
	}
	tx := db.Begin()
	v, _ := tx.Get(Key(1))
	tx.Put(Key(1), v+1)
	tx.Put(Key(499), 7)
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit on 128-shard cluster: %v", err)
	}
	if v, _ := db.Get(Key(1)); v != 2 {
		t.Fatalf("key 1 = %d", v)
	}
	db.Checkpoint()
	db.SimulateCrash(0.5, 128128)
	db, rinfo := db.Reopen()
	if len(rinfo.Shards) != 128 {
		t.Fatalf("%d shard recovery infos after crash", len(rinfo.Shards))
	}
	if v, _ := db.Get(Key(1)); v != 2 {
		t.Fatalf("key 1 = %d after recovery", v)
	}
	if v, _ := db.Get(Key(499)); v != 7 {
		t.Fatalf("key 499 = %d after recovery", v)
	}
	n := 0
	for range db.All() {
		n++
	}
	if n != 500 {
		t.Fatalf("scan saw %d keys after recovery", n)
	}
	db.Close()
}

// TestDefaultArenaFitsWorkers: the default arena holds the default heap and
// every worker's log and intent segments, so shapes whose segments once
// overflowed a fixed default arena open, write, checkpoint, crash, and
// recover exactly the committed state.
func TestDefaultArenaFitsWorkers(t *testing.T) {
	for _, o := range []Options{{Workers: 8}, {Shards: 64, Workers: 2}} {
		db, _ := Open(o)
		for i := uint64(0); i < 500; i++ {
			db.Handle(int(i)%o.Workers).Put(Key(i), i)
		}
		db.Checkpoint()
		for i := uint64(0); i < 500; i += 7 {
			db.Handle(int(i)%o.Workers).Put(Key(i), i+1000) // doomed: no checkpoint follows
		}
		db.SimulateCrash(0.5, 52)
		db, info := db.Reopen()
		if info.Status != epoch.CrashRecovered {
			t.Fatalf("%+v: status %v after a crash", o, info.Status)
		}
		n := uint64(0)
		for k, v := range db.All() {
			if DecodeValue(k) != n || DecodeValue(v) != n {
				t.Fatalf("%+v: entry %d = (%d, %d) after recovery", o, n, DecodeValue(k), DecodeValue(v))
			}
			n++
		}
		if n != 500 {
			t.Fatalf("%+v: %d keys after recovery, want 500", o, n)
		}
		db.Close()
	}
}

func TestCheckpointerDoubleStartStop(t *testing.T) {
	// Regression: a second StartCheckpointer used to panic the process
	// ("epoch: ticker already running").
	for _, shards := range []int{1, 2} {
		db, _ := Open(Options{Shards: shards, EpochInterval: 2e6})
		db.StartCheckpointer()
		db.StartCheckpointer() // must be a no-op, not a panic
		for i := uint64(0); i < 5000; i++ {
			db.Put(Key(i%100), i)
		}
		db.StopCheckpointer()
		db.StopCheckpointer() // idempotent
		db.Close()            // stops the (already stopped) ticker again
	}
}

func TestFacadeByteValuesEndToEnd(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db, _ := Open(Options{Shards: shards})
		sizes := []int{0, 1, 5, 6, 8, 100, 1024, MaxValueBytes}
		for i, n := range sizes {
			v := make([]byte, n)
			for j := range v {
				v[j] = byte(i + j)
			}
			if ok, err := db.PutBytes(Key(uint64(i)), v); !ok || err != nil {
				t.Fatalf("shards=%d: key %d not inserted (%v)", shards, i, err)
			}
		}
		db.Checkpoint()
		db.SimulateCrash(0.5, 99)
		db2, _ := db.Reopen()
		for i, n := range sizes {
			got, ok := db2.GetBytes(Key(uint64(i)))
			if !ok || len(got) != n {
				t.Fatalf("shards=%d: key %d → %d bytes, %v; want %d", shards, i, len(got), ok, n)
			}
			for j, c := range got {
				if c != byte(i+j) {
					t.Fatalf("shards=%d: key %d byte %d = %d, want %d (torn value)", shards, i, j, c, byte(i+j))
				}
			}
		}
		// The uint64 view decodes the first eight bytes, big-endian: key 3
		// holds the 6-byte value {3,4,5,6,7,8}.
		if v, ok := db2.Get(Key(3)); !ok || v != 0x030405060708 {
			t.Fatalf("shards=%d: uint64 view = %#x, %v", shards, v, ok)
		}
		var scanned int
		for range db2.All() {
			scanned++
		}
		if scanned != len(sizes) {
			t.Fatalf("shards=%d: scanned %d keys, want %d", shards, scanned, len(sizes))
		}
	}
}

func TestFacadeUintAndByteViewsAgree(t *testing.T) {
	db, _ := Open(Options{})
	db.Put(Key(1), 258)
	if b, ok := db.GetBytes(Key(1)); !ok || len(b) != 2 || b[0] != 1 || b[1] != 2 {
		t.Fatalf("GetBytes after Put(258) = %v, %v", b, ok)
	}
	db.PutBytes(Key(2), []byte{3, 4, 5})
	if v, ok := db.Get(Key(2)); !ok || v != 0x030405 {
		t.Fatalf("Get after PutBytes = %#x, %v", v, ok)
	}
	// Large uint64s round-trip through the heap path.
	db.Put(Key(3), 1<<63|12345)
	if v, _ := db.Get(Key(3)); v != 1<<63|12345 {
		t.Fatalf("large uint64 = %#x", v)
	}
}

// TestSingleKeyAllocBudget pins the single-key path at zero allocations:
// Get, and a Put of an inline uint64 (v < 2^40) over an existing key, on
// DB and on a worker's Handle, and a worker's PutBytes of a 256-byte value
// (a heap block) and AppendGet of it into a reused buffer, at one shard
// and at four — in the epoch a checkpoint just opened (first-touch undo
// captures) and after it.
func TestSingleKeyAllocBudget(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db, _ := Open(Options{Shards: shards, Workers: 2})
		keys := make([][]byte, 64)
		for i := range keys {
			keys[i] = Key(uint64(i) * 7919)
			db.Put(keys[i], uint64(i))
		}
		h := db.Handle(1)
		var sink uint64
		big, buf := make([]byte, 256), make([]byte, 0, 256)
		shapes := []struct {
			name string
			op   func(k []byte, v uint64)
		}{
			{"DB.Put", func(k []byte, v uint64) { db.Put(k, v) }},
			{"Handle.Put", func(k []byte, v uint64) { h.Put(k, v) }},
			{"DB.Get", func(k []byte, _ uint64) { v, _ := db.Get(k); sink += v }},
			{"Handle.Get", func(k []byte, _ uint64) { v, _ := h.Get(k); sink += v }},
			{"Handle.PutBytes/256", func(k []byte, v uint64) {
				binary.BigEndian.PutUint64(big, v) // Get reads v back
				h.PutBytes(k, big)
			}},
			{"Handle.AppendGet/256", func(k []byte, _ uint64) { buf, _ = h.AppendGet(buf[:0], k); sink += uint64(len(buf)) }},
		}
		for _, sh := range shapes {
			round := uint64(0)
			pass := func() {
				round++
				for i, k := range keys {
					sh.op(k, (round<<32|uint64(i))&(1<<40-1))
				}
			}
			db.Checkpoint()
			perOp := testing.AllocsPerRun(10, pass) / float64(len(keys))
			if perOp != 0 && !testutil.RaceEnabled {
				t.Errorf("shards=%d %s: %.2f allocations per op, want 0", shards, sh.name, perOp)
			}
		}
		if v, ok := db.Get(keys[1]); !ok || v>>32 == 0 {
			t.Fatalf("shards=%d: key 1 = %#x, %v after the passes", shards, v, ok)
		}
		db.Close()
	}
}

func TestFacadeTxnByteValues(t *testing.T) {
	for _, shards := range []int{1, 2} {
		db, _ := Open(Options{Shards: shards})
		big := make([]byte, 2000)
		for i := range big {
			big[i] = byte(i * 7)
		}
		db.PutBytes(Key(0), []byte("before"))
		db.Checkpoint()

		tx := db.Begin()
		if v, ok := tx.GetBytes(Key(0)); !ok || string(v) != "before" {
			t.Fatalf("shards=%d: txn read %q, %v", shards, v, ok)
		}
		tx.PutBytes(Key(0), big)
		tx.PutBytes(Key(1), []byte("small"))
		if err := tx.Commit(); err != nil {
			t.Fatalf("shards=%d: commit: %v", shards, err)
		}

		// The commit is durable now: lose every dirty line.
		db.SimulateCrash(0, 5)
		db2, info := db.Reopen()
		if info.TxnsReplayed != 1 {
			t.Fatalf("shards=%d: replayed %d txns, want 1", shards, info.TxnsReplayed)
		}
		if v, ok := db2.GetBytes(Key(0)); !ok || !bytes.Equal(v, big) {
			t.Fatalf("shards=%d: big value lost or torn after replay (%d bytes, %v)", shards, len(v), ok)
		}
		if v, _ := db2.GetBytes(Key(1)); string(v) != "small" {
			t.Fatalf("shards=%d: small value = %q", shards, v)
		}
	}
}

// TestShardedScanMatchesUnshardedBytes applies one deterministic op
// sequence with variable-length values (the -valuesize 1024 shape) to an
// unsharded and a sharded DB and asserts the full ScanBytes streams are
// byte-identical — the acceptance criterion that sharding never changes
// observable contents.
func TestShardedScanMatchesUnshardedBytes(t *testing.T) {
	run := func(shards int) (keys, vals [][]byte) {
		db, _ := Open(Options{Shards: shards})
		defer db.Close()
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 3000; i++ {
			k := Key(uint64(rng.Intn(800)))
			switch rng.Intn(10) {
			case 0:
				db.Delete(k)
			default:
				v := make([]byte, rng.Intn(1025))
				for j := range v {
					v[j] = byte(rng.Intn(256))
				}
				db.PutBytes(k, v)
			}
			if i%500 == 0 {
				db.Checkpoint()
			}
		}
		for k, v := range db.All() {
			keys = append(keys, append([]byte(nil), k...))
			vals = append(vals, append([]byte(nil), v...))
		}
		return
	}
	k1, v1 := run(1)
	k4, v4 := run(4)
	if len(k1) != len(k4) {
		t.Fatalf("unsharded scan has %d keys, sharded %d", len(k1), len(k4))
	}
	for i := range k1 {
		if !bytes.Equal(k1[i], k4[i]) {
			t.Fatalf("scan key %d differs: %x vs %x", i, k1[i], k4[i])
		}
		if !bytes.Equal(v1[i], v4[i]) {
			t.Fatalf("scan value for key %x differs (%d vs %d bytes)", k1[i], len(v1[i]), len(v4[i]))
		}
	}
}

// TestConcurrentScanWritersAndTicks races full cursor walks against
// writers and the background checkpointer on a sharded DB (run under -race
// in CI): the k-way-merge cursor refills while epochs advance. Walks must
// stay ordered and every value must be one some writer wrote for that key.
func TestConcurrentScanWritersAndTicks(t *testing.T) {
	db, _ := Open(Options{Shards: 4, Workers: 3, EpochInterval: 1e6})
	const keyspace = 2000
	for i := uint64(0); i < keyspace; i++ {
		db.Put(Key(i), i)
	}
	db.StartCheckpointer()
	defer db.Close()

	iters := 40
	if testing.Short() {
		iters = 10
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := db.Handle(w)
			rng := rand.New(rand.NewSource(int64(w) * 7))
			lo := uint64(w) * (keyspace / 2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := lo + uint64(rng.Intn(keyspace/2))
				if rng.Intn(10) == 0 {
					h.Delete(Key(k))
				} else {
					// The low bits always encode the key, so readers can
					// validate any observed version.
					h.Put(Key(k), uint64(i)<<16|k&0xFFFF)
				}
			}
		}(w)
	}

	scanner := db.Handle(2)
	for i := 0; i < iters; i++ {
		var prev []byte
		it := scanner.NewIter(IterOptions{})
		for ok := it.First(); ok; ok = it.Next() {
			k, v := it.Key(), it.ValueUint64()
			if prev != nil && bytes.Compare(k, prev) <= 0 {
				t.Errorf("scan order violated at key %x", k)
				break
			}
			prev = append(prev[:0], k...)
			ik := binary.BigEndian.Uint64(k)
			if v&0xFFFF != ik&0xFFFF && v != ik {
				t.Errorf("key %d scanned with foreign value %#x", ik, v)
				break
			}
		}
		// Interleave bounded walks to refill mid-keyspace.
		steps := 64
		for ok := it.SeekGE(Key(uint64(i * 13 % keyspace))); ok && steps > 0; ok = it.Next() {
			steps--
		}
		it.Close()
	}
	close(stop)
	wg.Wait()
}

// ---- PR 4: first-class snapshot cursors ----

// TestIteratorAdapters exercises the range-over-func surface: All, Range,
// Iter (reverse), and the equivalence of all of them with the manual
// cursor, on both an unsharded and a sharded DB.
func TestIteratorAdapters(t *testing.T) {
	for _, shards := range []int{1, 3} {
		db, _ := Open(Options{Shards: shards})
		const n = 500
		for i := uint64(0); i < n; i++ {
			db.Put(Key(i), i+1)
		}
		var keys, vals []uint64
		for k, v := range db.All() {
			keys = append(keys, binary.BigEndian.Uint64(k))
			vals = append(vals, core.DecodeValue(v))
		}
		if len(keys) != n {
			t.Fatalf("shards=%d: All yielded %d keys", shards, len(keys))
		}
		for i, k := range keys {
			if k != uint64(i) || vals[i] != k+1 {
				t.Fatalf("shards=%d: All entry %d = (%d, %d)", shards, i, k, vals[i])
			}
		}
		// All can be ranged more than once.
		count := 0
		for range db.All() {
			count++
		}
		if count != n {
			t.Fatalf("shards=%d: second range over All saw %d keys", shards, count)
		}
		// Range honours [lo, hi).
		got := []uint64{}
		for k := range db.Range(Key(10), Key(20)) {
			got = append(got, binary.BigEndian.Uint64(k))
		}
		if len(got) != 10 || got[0] != 10 || got[9] != 19 {
			t.Fatalf("shards=%d: Range(10, 20) = %v", shards, got)
		}
		// Reverse adapter: descending, same bounds.
		got = got[:0]
		for k := range db.Iter(IterOptions{LowerBound: Key(10), UpperBound: Key(20), Reverse: true}) {
			got = append(got, binary.BigEndian.Uint64(k))
		}
		if len(got) != 10 || got[0] != 19 || got[9] != 10 {
			t.Fatalf("shards=%d: reverse Range = %v", shards, got)
		}
		// Early break closes cleanly and a new range still works.
		count = 0
		for range db.All() {
			count++
			if count == 7 {
				break
			}
		}
		for range db.All() {
			count++
		}
		if count != 7+n {
			t.Fatalf("shards=%d: range after early break saw %d", shards, count-7)
		}
		db.Close()
	}
}

// TestTxnAllSeesOwnWrites: the Txn adapter shows pending writes overlaid
// on the committed state.
func TestTxnAllSeesOwnWrites(t *testing.T) {
	db, _ := Open(Options{})
	db.Put(Key(1), 1)
	db.Put(Key(2), 2)
	db.Put(Key(3), 3)
	tx := db.Begin()
	tx.Put(Key(2), 22) // overwrite
	tx.Delete(Key(3))  // hide
	tx.Put(Key(4), 44) // fresh insert
	want := map[uint64]uint64{1: 1, 2: 22, 4: 44}
	seen := map[uint64]uint64{}
	prev := int64(-1)
	for k, v := range tx.All() {
		ik := int64(binary.BigEndian.Uint64(k))
		if ik <= prev {
			t.Fatalf("Txn.All order violated at %d", ik)
		}
		prev = ik
		seen[uint64(ik)] = core.DecodeValue(v)
	}
	if len(seen) != len(want) {
		t.Fatalf("Txn.All saw %v, want %v", seen, want)
	}
	for k, v := range want {
		if seen[k] != v {
			t.Fatalf("Txn.All[%d] = %d, want %d", k, seen[k], v)
		}
	}
	tx.Abort()
	// After Abort, the store is untouched.
	if v, _ := db.Get(Key(2)); v != 2 {
		t.Fatalf("aborted write leaked: %d", v)
	}
}

// TestFacadeSizeLimitErrors: the byte-value paths return (not panic)
// ErrValueTooLarge / ErrKeyTooLarge, and the txn path is errors.Is
// compatible with them.
func TestFacadeSizeLimitErrors(t *testing.T) {
	db, _ := Open(Options{})
	big := make([]byte, MaxValueBytes+1)
	longKey := make([]byte, MaxKeyBytes+1)

	if _, err := db.PutBytes(Key(1), big); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("DB.PutBytes oversize value: %v", err)
	}
	if _, err := db.PutBytes(longKey, []byte("v")); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("DB.PutBytes oversize key: %v", err)
	}
	if _, err := db.Handle(0).PutBytes(Key(1), big); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("Handle.PutBytes oversize value: %v", err)
	}
	if _, ok := db.GetBytes(Key(1)); ok {
		t.Fatal("rejected value was stored")
	}

	// Batch: poisoned at PutBytes, reported by Apply, nothing applied.
	b := &Batch{}
	b.Put(Key(5), 5)
	b.PutBytes(Key(6), big)
	if err := db.Apply(b); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("Apply poisoned batch: %v", err)
	}
	if _, ok := db.Get(Key(5)); ok {
		t.Fatal("poisoned batch applied a write")
	}

	// Txn: poisoned at PutBytes, Commit errors.Is-compatible.
	tx := db.Begin()
	tx.Put(Key(7), 7)
	tx.PutBytes(Key(8), big)
	if err := tx.Commit(); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("Txn.Commit oversize value: %v", err)
	}
	if _, ok := db.Get(Key(7)); ok {
		t.Fatal("poisoned txn applied a write")
	}
	tx = db.Begin()
	tx.Put(longKey, 1)
	if err := tx.Commit(); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("Txn.Commit oversize key: %v", err)
	}

	// A max-sized pair is accepted everywhere.
	if _, err := db.PutBytes(make([]byte, MaxKeyBytes), make([]byte, MaxValueBytes)); err != nil {
		t.Fatalf("max-sized pair rejected: %v", err)
	}
}

// TestIteratorVsWritersVsTicker races a full-table cursor against
// concurrent writers and the background checkpoint ticker (run under
// -race in CI). The cursor must stay ordered and never block an epoch
// advance for longer than one batch — the run finishing at all, with the
// 1 ms ticker live, is the liveness half of that claim.
func TestIteratorVsWritersVsTicker(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db, _ := Open(Options{Shards: shards, Workers: 3, EpochInterval: time.Millisecond})
		const n = 20000
		for i := uint64(0); i < n; i++ {
			db.Put(Key(i), i)
		}
		db.Checkpoint()
		db.StartCheckpointer()

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 1; w <= 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := db.Handle(w)
				rng := rand.New(rand.NewSource(int64(w)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := uint64(rng.Intn(n))
					switch rng.Intn(3) {
					case 0:
						h.Delete(Key(k))
					default:
						h.Put(Key(k), rng.Uint64()%(1<<40))
					}
				}
			}(w)
		}

		for round := 0; round < 3; round++ {
			it := db.Handle(0).NewIter(IterOptions{})
			var prev []byte
			count := 0
			for ok := it.First(); ok; ok = it.Next() {
				if prev != nil && bytes.Compare(it.Key(), prev) <= 0 {
					t.Fatalf("shards=%d: cursor order violated under churn", shards)
				}
				prev = append(prev[:0], it.Key()...)
				count++
			}
			it.Close()
			if count == 0 {
				t.Fatalf("shards=%d: cursor saw nothing", shards)
			}
			// And a reverse pass under the same churn.
			it = db.Handle(0).NewIter(IterOptions{})
			prev = nil
			for ok := it.Last(); ok; ok = it.Prev() {
				if prev != nil && bytes.Compare(it.Key(), prev) >= 0 {
					t.Fatalf("shards=%d: reverse cursor order violated under churn", shards)
				}
				prev = append(prev[:0], it.Key()...)
			}
			it.Close()
		}
		close(stop)
		wg.Wait()
		db.Close()
	}
}
