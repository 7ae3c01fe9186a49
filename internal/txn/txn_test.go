package txn

import (
	"errors"
	"testing"

	"incll/internal/core"
	"incll/internal/nvm"
	"incll/internal/shard"
)

// singleFixture is one core store plus its manager, rebuildable across
// simulated crashes.
type singleFixture struct {
	arena *nvm.Arena
	cfg   core.Config
	store *core.Store
	m     *Manager
}

func newSingle(t *testing.T) *singleFixture {
	t.Helper()
	f := &singleFixture{
		arena: nvm.New(nvm.Config{Words: 1 << 21}),
		cfg: core.Config{
			Workers:     2,
			LogSegWords: 1 << 14,
			TxnSegWords: 1 << 12,
			HeapWords:   1 << 20,
		},
	}
	f.store, _ = core.Open(f.arena, f.cfg)
	f.m, _ = ForStore(f.store)
	return f
}

// crash injects a power failure and reopens store and manager, returning
// the number of transactions replayed.
func (f *singleFixture) crash(p nvm.Policy) int {
	f.arena.Crash(p)
	f.arena.ResetReservations()
	f.store, _ = core.Open(f.arena, f.cfg)
	var replayed int
	f.m, replayed = ForStore(f.store)
	return replayed
}

func key(k uint64) []byte { return core.EncodeUint64(k) }

func TestCommitAppliesAllWrites(t *testing.T) {
	f := newSingle(t)
	tx := f.m.Begin(0)
	tx.Put(key(1), 10)
	tx.Put(key(2), 20)
	tx.Delete(key(3))
	tx.Put(key(2), 21) // overwrite collapses
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if v, ok := f.store.Get(key(1)); !ok || v != 10 {
		t.Fatalf("key 1 = %d,%v", v, ok)
	}
	if v, ok := f.store.Get(key(2)); !ok || v != 21 {
		t.Fatalf("key 2 = %d,%v", v, ok)
	}
	if got := f.m.Stats().Committed.Load(); got != 1 {
		t.Fatalf("committed = %d", got)
	}
}

func TestAbortAppliesNothing(t *testing.T) {
	f := newSingle(t)
	tx := f.m.Begin(0)
	tx.Put(key(1), 10)
	tx.Abort()
	if _, ok := f.store.Get(key(1)); ok {
		t.Fatal("aborted write visible")
	}
}

func TestReadYourWritesAndCaching(t *testing.T) {
	f := newSingle(t)
	f.store.Put(key(1), 5)
	tx := f.m.Begin(0)
	if v, _ := tx.Get(key(1)); v != 5 {
		t.Fatalf("initial read = %d", v)
	}
	tx.Put(key(1), 6)
	if v, _ := tx.Get(key(1)); v != 6 {
		t.Fatalf("read-your-write = %d", v)
	}
	tx.Delete(key(1))
	if _, ok := tx.Get(key(1)); ok {
		t.Fatal("read-your-delete still present")
	}
	tx.Abort()

	// Cached reads are repeatable even if the store moves underneath.
	tx2 := f.m.Begin(0)
	if v, _ := tx2.Get(key(1)); v != 5 {
		t.Fatalf("read = %d", v)
	}
	f.store.Put(key(1), 99)
	if v, _ := tx2.Get(key(1)); v != 5 {
		t.Fatalf("repeated read = %d, want the cached 5", v)
	}
	tx2.Abort()
}

func TestConflictDetection(t *testing.T) {
	f := newSingle(t)
	f.store.Put(key(1), 5)

	tx := f.m.Begin(0)
	v, _ := tx.Get(key(1))
	tx.Put(key(1), v+1)

	// A second transaction commits a conflicting write first.
	tx2 := f.m.Begin(1)
	tx2.Put(key(1), 50)
	if err := tx2.Commit(); err != nil {
		t.Fatalf("tx2 commit: %v", err)
	}

	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit = %v, want ErrConflict", err)
	}
	if v, _ := f.store.Get(key(1)); v != 50 {
		t.Fatalf("key 1 = %d, want tx2's 50", v)
	}
	if got := f.m.Stats().Conflicts.Load(); got != 1 {
		t.Fatalf("conflicts = %d", got)
	}
}

// TestDurableAtCommit is the headline guarantee: a committed transaction
// survives a crash that loses every dirty cache line, with no checkpoint
// in between — single-key writes in the same epoch do not.
func TestDurableAtCommit(t *testing.T) {
	f := newSingle(t)
	f.store.Put(key(1), 1)
	f.store.Advance() // commit the baseline

	f.store.Put(key(5), 555) // plain write: durable only at next checkpoint

	tx := f.m.Begin(0)
	tx.Put(key(1), 2)
	tx.Put(key(2), 3)
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	if replayed := f.crash(nvm.PersistNone); replayed != 1 {
		t.Fatalf("replayed %d transactions, want 1", replayed)
	}
	if v, ok := f.store.Get(key(1)); !ok || v != 2 {
		t.Fatalf("key 1 = %d,%v, want the committed 2", v, ok)
	}
	if v, ok := f.store.Get(key(2)); !ok || v != 3 {
		t.Fatalf("key 2 = %d,%v, want the committed 3", v, ok)
	}
	if _, ok := f.store.Get(key(5)); ok {
		t.Fatal("uncommitted single-key write survived a full-loss crash")
	}

	// The replay must itself be durable: a second full-loss crash with the
	// generation already retired must not lose the transaction.
	if replayed := f.crash(nvm.PersistNone); replayed != 0 {
		t.Fatalf("second recovery replayed %d, want 0 (retired)", replayed)
	}
	if v, ok := f.store.Get(key(1)); !ok || v != 2 {
		t.Fatalf("key 1 = %d,%v after second crash", v, ok)
	}
}

func TestCheckpointRetiresIntent(t *testing.T) {
	f := newSingle(t)
	tx := f.m.Begin(0)
	tx.Put(key(1), 2)
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	f.m.Advance() // checkpoint commits the epoch; intent becomes inert
	if replayed := f.crash(nvm.PersistNone); replayed != 0 {
		t.Fatalf("replayed %d after checkpoint, want 0", replayed)
	}
	if v, ok := f.store.Get(key(1)); !ok || v != 2 {
		t.Fatalf("key 1 = %d,%v", v, ok)
	}
}

func TestTooLargeWriteSet(t *testing.T) {
	arena := nvm.New(nvm.Config{Words: 1 << 21})
	cfg := core.Config{Workers: 1, LogSegWords: 1 << 14, TxnSegWords: 2 * nvm.WordsPerLine, HeapWords: 1 << 20}
	s, _ := core.Open(arena, cfg)
	m, _ := ForStore(s)
	tx := m.Begin(0)
	for i := uint64(0); i < 64; i++ {
		tx.Put(key(i), i)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("commit = %v, want ErrTooLarge", err)
	}
}

func TestFullSegmentRetriesAfterAdvance(t *testing.T) {
	arena := nvm.New(nvm.Config{Words: 1 << 21})
	cfg := core.Config{Workers: 1, LogSegWords: 1 << 14, TxnSegWords: nvm.WordsPerLine, HeapWords: 1 << 20}
	s, _ := core.Open(arena, cfg)
	m, _ := ForStore(s)
	for i := uint64(0); i < 5; i++ { // each fills the one-line segment
		tx := m.Begin(0)
		tx.Put(key(i), i)
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if adv := s.Epochs().Advances(); adv < 4 {
		t.Fatalf("advances = %d; full segments should have forced boundaries", adv)
	}
}

// TestCrossShardCommitAndReplay commits a transaction spanning shards and
// crash-recovers it through the coordinated cluster.
func TestCrossShardCommitAndReplay(t *testing.T) {
	const shards = 4
	cluster, _ := shard.Open(shard.Config{Shards: shards, Workers: 1, ArenaWords: 1 << 20})
	mgr := managerFor(cluster)

	// Find keys on at least two distinct shards.
	var ks [][]byte
	seen := map[int]bool{}
	for i := uint64(0); len(ks) < 3 || len(seen) < 2; i++ {
		k := key(i)
		sh := shard.Route(k, shards)
		if len(ks) < 3 {
			ks = append(ks, k)
			seen[sh] = true
		}
	}

	tx := mgr.Begin(0)
	for i, k := range ks {
		tx.Put(k, uint64(100+i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	cluster.SimulateCrash(0, 7) // lose every dirty line on every shard
	cluster, _ = cluster.Reopen()
	var replayed int
	mgr, replayed = ForCluster(cluster)
	if replayed != 1 {
		t.Fatalf("replayed %d, want 1", replayed)
	}
	for i, k := range ks {
		if v, ok := cluster.Handle(0).Get(k); !ok || v != uint64(100+i) {
			t.Fatalf("key %d = %d,%v after cross-shard recovery", i, v, ok)
		}
	}
	_ = mgr
}

func managerFor(s *shard.Store) *Manager {
	m, _ := ForCluster(s)
	return m
}

func TestReadOnlyCommitValidates(t *testing.T) {
	f := newSingle(t)
	f.store.Put(key(1), 5)
	f.store.Put(key(2), 10)

	// Clean read-only snapshot certifies.
	tx := f.m.Begin(0)
	tx.Get(key(1))
	tx.Get(key(2))
	if err := tx.Commit(); err != nil {
		t.Fatalf("clean read-only commit: %v", err)
	}

	// A conflicting write between the reads breaks the certification.
	tx2 := f.m.Begin(0)
	tx2.Get(key(1))
	f.store.Put(key(1), 6)
	tx2.Get(key(2))
	if err := tx2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("torn read-only commit = %v, want ErrConflict", err)
	}

	// Empty transactions still commit trivially.
	if err := f.m.Begin(0).Commit(); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
}

func TestOversizeKeyPoisonsCommit(t *testing.T) {
	f := newSingle(t)
	tx := f.m.Begin(0)
	tx.Put(make([]byte, core.MaxKeyBytes+1), 1)
	tx.Put(key(1), 2) // later writes ride along but the txn stays poisoned
	if err := tx.Commit(); !errors.Is(err, core.ErrKeyTooLarge) {
		t.Fatalf("commit = %v, want ErrKeyTooLarge", err)
	}
	if _, ok := f.store.Get(key(1)); ok {
		t.Fatal("poisoned transaction applied a write")
	}
	if recs := f.store.Intents().ScanIntents(); len(recs) != 0 {
		t.Fatalf("%d intent records written for a rejected key", len(recs))
	}
}

func TestPutBytesOversizeFailsBeforeIntent(t *testing.T) {
	// The size check must fire when the write is buffered — Commit reports
	// it before any durable intent record is written under the commit
	// locks, and the error stays errors.Is-compatible with the façade's
	// ErrValueTooLarge.
	f := newSingle(t)
	tx := f.m.Begin(0)
	tx.PutBytes(key(1), make([]byte, core.MaxValueBytes+1))
	if err := tx.Commit(); !errors.Is(err, core.ErrValueTooLarge) {
		t.Fatalf("commit = %v, want ErrValueTooLarge", err)
	}
	if recs := f.store.Intents().ScanIntents(); len(recs) != 0 {
		t.Fatalf("%d intent records written for a rejected value", len(recs))
	}
	if _, ok := f.store.Get(key(1)); ok {
		t.Fatal("poisoned transaction applied a write")
	}
}
