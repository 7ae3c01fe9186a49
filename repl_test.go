package incll

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// dumpAll collects the whole DB through the merge cursor, ascending or
// descending, as (key, value) byte pairs.
func dumpAll(db *DB, reverse bool) [][2]string {
	var out [][2]string
	for k, v := range db.Iter(IterOptions{Reverse: reverse}) {
		out = append(out, [2]string{string(k), string(v)})
	}
	return out
}

// requireEqualDBs asserts byte-identical All() iteration in both
// directions.
func requireEqualDBs(t *testing.T, a, b *DB) {
	t.Helper()
	for _, rev := range []bool{false, true} {
		da, db2 := dumpAll(a, rev), dumpAll(b, rev)
		if len(da) != len(db2) {
			t.Fatalf("reverse=%v: %d vs %d keys", rev, len(da), len(db2))
		}
		for i := range da {
			if da[i] != db2[i] {
				t.Fatalf("reverse=%v: entry %d diverges: %q vs %q", rev, i, da[i], db2[i])
			}
		}
	}
}

// fillMatrix loads a mix that exercises inline values (≤5 bytes), heap
// values, multi-layer keys (> 8 bytes), empty values, and deletions.
func fillMatrix(t *testing.T, db *DB, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d-%s", i, bytes.Repeat([]byte("x"), rng.Intn(20))))
		var v []byte
		switch i % 4 {
		case 0: // inline
			v = []byte(fmt.Sprintf("%05d", i%99999))[:1+rng.Intn(5)]
		case 1: // heap-resident
			v = bytes.Repeat([]byte{byte(i)}, 64+rng.Intn(512))
		case 2: // empty value
			v = nil
		case 3: // uint64 view
			db.Put(k, uint64(i))
			continue
		}
		if _, err := db.PutBytes(k, v); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a scattering so restores must reproduce absences too.
	for i := 0; i < n; i += 17 {
		db.Delete([]byte(fmt.Sprintf("key-%06d-", i)))
	}
}

// TestSnapshotRestoreMatrix round-trips snapshot → restore across the
// full option matrix: 1 and 4 source shards, inline and heap-resident
// byte values, restored into the same and a different shard count.
func TestSnapshotRestoreMatrix(t *testing.T) {
	for _, srcShards := range []int{1, 4} {
		for _, dstShards := range []int{1, 4, 3} {
			t.Run(fmt.Sprintf("src%d-dst%d", srcShards, dstShards), func(t *testing.T) {
				src, _ := Open(Options{Shards: srcShards})
				defer src.Close()
				fillMatrix(t, src, 600, int64(srcShards*100+dstShards))

				var buf bytes.Buffer
				info, err := src.Snapshot(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if info.AnchorEpoch == 0 {
					t.Fatalf("anchor epoch 0")
				}
				dst, rinfo, err := Restore(bytes.NewReader(buf.Bytes()), Options{Shards: dstShards})
				if err != nil {
					t.Fatal(err)
				}
				defer dst.Close()
				if rinfo.Keys != info.Keys || rinfo.AnchorEpoch != info.AnchorEpoch {
					t.Fatalf("restore info %+v vs snapshot info %+v", rinfo, info)
				}
				requireEqualDBs(t, src, dst)
			})
		}
	}
}

// TestSnapshotUnderConcurrentWrites exports while writers churn; the
// restored DB must equal the primary once the primary quiesces at a
// boundary at or past the anchor — i.e. the restore is exactly the state
// at the anchor epoch, and replaying the primary's own post-anchor
// changes onto the restore reconverges.
func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			src, _ := Open(Options{Shards: shards, Workers: 2})
			for i := 0; i < 2000; i++ {
				src.Put(Key(uint64(i)), uint64(i))
			}
			// Subscribe before the export so the post-anchor suffix can be
			// replayed onto the restore afterwards.
			post := src.Changes()
			defer post.Close()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := src.Handle(1)
				rng := rand.New(rand.NewSource(7))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := Key(uint64(rng.Intn(2000)))
					if i%5 == 4 {
						h.Delete(k)
					} else {
						h.Put(k, uint64(i)<<8)
					}
				}
			}()

			var buf bytes.Buffer
			info, err := src.Snapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()
			src.Checkpoint() // release the writers' tail

			dst, _, err := Restore(bytes.NewReader(buf.Bytes()), Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			defer src.Close()

			// Replay the primary's released post-anchor changes onto the
			// restore; the two must then be byte-identical.
			for {
				b, err := post.Next()
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range b.Changes {
					if c.Epoch <= info.AnchorEpoch {
						continue
					}
					if c.Op == ChangeDelete {
						dst.Delete(c.Key)
					} else if _, err := dst.PutBytes(c.Key, c.Value); err != nil {
						t.Fatal(err)
					}
				}
				if b.Epoch >= post.Released() {
					break
				}
			}
			requireEqualDBs(t, src, dst)
		})
	}
}

// TestRestoreRejectsTruncation verifies a cut-off stream can never
// restore silently: every prefix length must fail with ErrBadStream.
func TestRestoreRejectsTruncation(t *testing.T) {
	src, _ := Open(Options{})
	defer src.Close()
	for i := 0; i < 200; i++ {
		src.Put(Key(uint64(i)), uint64(i))
	}
	var buf bytes.Buffer
	if _, err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, 5, 13, len(raw) / 2, len(raw) - 1} {
		if _, _, err := Restore(bytes.NewReader(raw[:cut]), Options{}); !errors.Is(err, ErrBadStream) {
			t.Fatalf("cut at %d: err %v, want ErrBadStream", cut, err)
		}
	}
	// Bit flip in the middle.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 1
	if _, _, err := Restore(bytes.NewReader(flipped), Options{}); !errors.Is(err, ErrBadStream) {
		t.Fatalf("bit flip: err %v, want ErrBadStream", err)
	}
}

// TestReplicationRejectsInvalidOptions: options Open would panic on are
// an error from Restore and FollowPrimary, returned before anything is
// opened or dialed — a bad follower config never panics a client
// goroutine and kills the process.
func TestReplicationRejectsInvalidOptions(t *testing.T) {
	src, _ := Open(Options{})
	defer src.Close()
	src.Put(Key(1), 1)
	var snap bytes.Buffer
	if _, err := src.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	rs := serveRepl(t, src)
	bad := Options{Shards: MaxShards + 1}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Restore", func() error {
			_, _, err := Restore(bytes.NewReader(snap.Bytes()), bad)
			return err
		}},
		{"FollowPrimary", func() error {
			_, err := FollowPrimary(rs.Addr().String(), FollowerOptions{Options: bad, ReadyTimeout: 5 * time.Second})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); !errors.Is(err, ErrTooManyShards) {
				t.Fatalf("err = %v, want ErrTooManyShards", err)
			}
		})
	}
	if n := rs.Stats().Accepts; n != 0 {
		t.Fatalf("primary accepted %d connections from an invalid follower", n)
	}
}

// TestChangesStream exercises the façade CDC subscription: batches appear
// only at checkpoint commits, tagged with committed epochs, and a clean
// Close drains before ErrStreamClosed.
func TestChangesStream(t *testing.T) {
	db, _ := Open(Options{Shards: 2})
	sub := db.Changes()
	defer sub.Close()

	db.Put(Key(1), 100)
	db.Put(Key(2), 200)
	db.Delete(Key(1))
	db.Checkpoint()

	b, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Changes) != 3 {
		t.Fatalf("changes: %d, want 3", len(b.Changes))
	}
	if b.Changes[2].Op != ChangeDelete || string(b.Changes[2].Key) != string(Key(1)) {
		t.Fatalf("last change: %+v", b.Changes[2])
	}
	for _, c := range b.Changes {
		if c.Epoch > b.Epoch {
			t.Fatalf("entry epoch %d beyond batch horizon %d", c.Epoch, b.Epoch)
		}
	}

	db.Put(Key(3), 300)
	db.Close()
	// Drain the final epoch (clean shutdown releases it), then closed.
	for {
		b, err = sub.Next()
		if errors.Is(err, ErrStreamClosed) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTxnCommitsAppearInStream: transactional applies go through the same
// write chokepoints, so committed transactions appear in the stream as
// their individual operations once their epoch is released.
func TestTxnCommitsAppearInStream(t *testing.T) {
	db, _ := Open(Options{Shards: 2})
	defer db.Close()
	sub := db.Changes()
	defer sub.Close()

	db.Put(Key(10), 99) // pre-existing, so the txn's delete is a real change
	tx := db.Begin()
	tx.Put(Key(10), 1) // collapsed into the later delete by the write set
	tx.Put(Key(20), 2)
	tx.Delete(Key(10))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Checkpoint()
	b, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Pre-insert put, txn's put(20), txn's delete(10).
	ops := map[string]ChangeOp{}
	for _, c := range b.Changes {
		ops[string(c.Key)] = c.Op
	}
	if len(b.Changes) != 3 || ops[string(Key(20))] != ChangePut || ops[string(Key(10))] != ChangeDelete {
		t.Fatalf("txn changes: %d (%v), want pre-put + put(20) + delete(10)", len(b.Changes), ops)
	}
}

// TestReplicaCatchUpAndPromote runs a loopback follower under live write
// load, checks lag reporting on both ends of the stream, and promotes it
// to a writable primary equal to the source.
func TestReplicaCatchUpAndPromote(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			primary, _ := Open(Options{Shards: shards, Workers: 2, EpochInterval: 2 * time.Millisecond})
			for i := 0; i < 3000; i++ {
				primary.Put(Key(uint64(i)), uint64(i))
			}
			primary.StartCheckpointer()

			rs := serveRepl(t, primary)
			f := followT(t, rs.Addr().String(), FollowerOptions{ID: "replica", Options: Options{Shards: 1}})
			defer f.Close()
			// Write through while the follower follows.
			h := primary.Handle(1)
			for i := 0; i < 5000; i++ {
				k := Key(uint64(i % 3000))
				if i%7 == 6 {
					h.Delete(k)
				} else {
					h.Put(k, uint64(i)|1<<40) // heap-resident values too
				}
			}
			primary.StopCheckpointer()
			primary.Checkpoint()
			rel := primary.ReleasedEpoch()
			if err := f.WaitWatermark(rel, 15*time.Second); err != nil {
				t.Fatal(err)
			}
			if lag := f.Lag(); lag.Epochs != 0 {
				t.Fatalf("lag after catch-up: %+v", lag)
			}
			waitCond(t, "primary sees the follower caught up", func() bool {
				ps := rs.Peers()
				return len(ps) == 1 && ps[0].AckedEpoch >= rel && ps[0].LagEpochs == 0 && ps[0].LagBytes == 0
			})
			requireEqualDBs(t, primary, f.DB())

			promoted, err := f.Promote()
			if err != nil {
				t.Fatal(err)
			}
			// The promoted DB accepts writes like any primary.
			promoted.Put(Key(999999), 1)
			if v, ok := promoted.Get(Key(999999)); !ok || v != 1 {
				t.Fatalf("promoted write lost")
			}
			promoted.Close()
			primary.Close()
		})
	}
}

// TestReplicaLosesStreamOnPrimaryCrash: a primary crash severs the
// stream; the follower notices, still holds the exact committed prefix
// the recovered primary holds, and a fresh follow of the reopened
// primary reconverges to full equality.
func TestReplicaLosesStreamOnPrimaryCrash(t *testing.T) {
	primary, _ := Open(Options{Shards: 2})
	for i := 0; i < 1000; i++ {
		primary.Put(Key(uint64(i)), uint64(i))
	}
	rs := serveRepl(t, primary)
	f := followT(t, rs.Addr().String(), FollowerOptions{ID: "replica", Options: Options{Shards: 2}})
	defer f.Close()

	for i := 0; i < 500; i++ {
		primary.Put(Key(uint64(i)), uint64(i)+7_000_000)
	}
	primary.Checkpoint()
	rel := primary.ReleasedEpoch()
	if err := f.WaitWatermark(rel, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	// Crash the primary mid-stream (uncommitted tail in flight).
	for i := 0; i < 100; i++ {
		primary.Put(Key(uint64(i)), 42)
	}
	primary.SimulateCrash(0.5, 99)
	waitCond(t, "follower noticed the dead primary", func() bool {
		down, _ := f.Down()
		return down && !f.Connected()
	})
	if got := f.AppliedEpoch(); got != rel {
		t.Fatalf("applied epoch %d after the crash, want the last released %d", got, rel)
	}

	reopened, _ := primary.Reopen()
	defer reopened.Close()
	requireEqualDBs(t, reopened, f.DB())

	rs2 := serveRepl(t, reopened)
	f2 := followT(t, rs2.Addr().String(), FollowerOptions{ID: "replica", Options: Options{Shards: 2}})
	defer f2.Close()
	if err := f2.WaitWatermark(reopened.ReleasedEpoch(), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	requireEqualDBs(t, reopened, f2.DB())
}
