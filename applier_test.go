package incll

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incll/internal/core"
	"incll/internal/repl"
	"incll/internal/replnet"
	"incll/internal/shard"
)

// scriptedSource is a snapshotSource whose snapshot is a pre-recorded
// stream and whose change feed delivers exactly the batches the test
// pushes, so the same history can be replayed through every front-end.
type scriptedSource struct {
	snap     []byte
	anchor   uint64
	batches  chan repl.Batch
	horizon  atomic.Uint64 // last pushed batch horizon
	unpinned atomic.Int64
}

func (s *scriptedSource) Snapshot(w io.Writer) (SnapshotInfo, error) {
	n, err := w.Write(s.snap)
	return SnapshotInfo{AnchorEpoch: s.anchor, Bytes: int64(n)}, err
}

func (s *scriptedSource) subscribePinned() replnet.BatchSource {
	return &scriptedFeed{src: s, closed: make(chan struct{})}
}

func (s *scriptedSource) push(b repl.Batch) {
	s.horizon.Store(b.Epoch)
	s.batches <- b
}

// scriptedFeed is one subscription to a scriptedSource (a re-bootstrapping
// follower opens a fresh one; they all drain the same script).
type scriptedFeed struct {
	src    *scriptedSource
	closed chan struct{}
	once   sync.Once
}

func (f *scriptedFeed) Next() (repl.Batch, error) {
	select {
	case b := <-f.src.batches:
		return b, nil
	case <-f.closed:
		return repl.Batch{}, repl.ErrStreamClosed
	}
}
func (f *scriptedFeed) Released() uint64     { return f.src.horizon.Load() }
func (f *scriptedFeed) PendingBytes() uint64 { return 0 }
func (f *scriptedFeed) Unpin()               { f.src.unpinned.Add(1) }
func (f *scriptedFeed) Close()               { f.once.Do(func() { close(f.closed) }) }

// applied is one target mutation the applier issued, with the watermark
// that was visible while it landed.
type appliedOp struct {
	op        ChangeOp
	key       string
	watermark uint64
}

// spyTarget wraps the applier's current target so the test sees every
// put, delete and checkpoint issued after the bootstrap. Oversized keys
// are rejected here the way the façade rejects them, which gives the
// reshard target (raw shard handles, no validation of its own) the same
// failing put as the DB-backed targets.
type spyTarget struct {
	mu          sync.Mutex
	ops         []appliedOp
	checkpoints int
}

func (s *spyTarget) attach(a *applier) {
	a.mu.Lock()
	defer a.mu.Unlock()
	put, del, ckpt := a.tgt.Put, a.tgt.Delete, a.tgt.Checkpoint
	record := func(op ChangeOp, k []byte) {
		w := a.state().applied // apply holds no lock while it lands entries
		s.mu.Lock()
		s.ops = append(s.ops, appliedOp{op, string(k), w})
		s.mu.Unlock()
	}
	a.tgt.Put = func(k, v []byte) error {
		if err := core.ValidateKV(k, v); err != nil {
			return err
		}
		record(ChangePut, k)
		return put(k, v)
	}
	a.tgt.Delete = func(k []byte) error {
		record(ChangeDelete, k)
		return del(k)
	}
	a.tgt.Checkpoint = func() {
		s.mu.Lock()
		s.checkpoints++
		s.mu.Unlock()
		ckpt()
	}
}

func (s *spyTarget) snapshot() ([]appliedOp, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]appliedOp(nil), s.ops...), s.checkpoints
}

func dumpCursor(it core.Cursor) map[string]string {
	defer it.Close()
	out := make(map[string]string)
	for ok := it.First(); ok; ok = it.Next() {
		out[string(it.Key())] = string(it.Value())
	}
	return out
}

// TestApplierSameScriptThroughEveryFrontEnd replays one scripted history —
// a snapshot at anchor A, a first batch overlapping A, a batch large
// enough to cross the wire in several chunks, an empty batch, and a batch
// whose last put fails — through the in-process Replica, a Follower over
// loopback TCP, and the reshard target, and requires the same result from
// each: identical contents, nothing at or below A re-applied, one
// checkpoint and one watermark step per released batch (never on a
// non-final chunk), every applied byte counted, and a failed put that
// leaves the watermark on the last whole batch.
func TestApplierSameScriptThroughEveryFrontEnd(t *testing.T) {
	// The snapshot: ten base keys, exported from a real store.
	seed, _ := Open(Options{})
	model := make(map[string]string)
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("base-%d", i)
		if _, err := seed.PutBytes([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	var snap bytes.Buffer
	sinfo, err := seed.Snapshot(&snap)
	seed.Close()
	if err != nil {
		t.Fatal(err)
	}
	A := sinfo.AnchorEpoch

	put := func(epoch uint64, k, v string) repl.Entry {
		return repl.Entry{Op: ChangePut, Epoch: epoch, Key: []byte(k), Val: []byte(v)}
	}
	del := func(epoch uint64, k string) repl.Entry {
		return repl.Entry{Op: ChangeDelete, Epoch: epoch, Key: []byte(k)}
	}
	big := func(epoch uint64, prefix string, n int) []repl.Entry {
		ents := make([]repl.Entry, n)
		for i := range ents {
			ents[i] = put(epoch, fmt.Sprintf("%s-%03d", prefix, i), string(bytes.Repeat([]byte{byte('a' + i%26)}, 8000)))
		}
		return ents
	}
	// 160 × 8 KB is five 256 KiB wire chunks; 50 × 8 KB puts the oversized
	// key of the failing batch in its second (final) chunk.
	failing := append(big(A+4, "doomed", 50), put(A+4, string(bytes.Repeat([]byte("K"), MaxKeyBytes+1)), "x"))
	script := []repl.Batch{
		{Epoch: A + 1, Entries: []repl.Entry{
			put(A, "k00", "STALE"), // at the anchor: baked into the snapshot
			del(A, "k01"),
			put(A+1, "k02", "live-1"),
			del(A+1, "k03"),
			put(A+1, "new-1", "n1"),
		}},
		{Epoch: A + 2, Entries: big(A+2, "big", 160)},
		{Epoch: A + 3},
	}

	type running struct {
		app  *applier
		dump func() map[string]string
		stop func()
	}
	frontEnds := []struct {
		name  string
		start func(t *testing.T, src *scriptedSource) running
	}{
		{"replica", func(t *testing.T, src *scriptedSource) running {
			r := &Replica{app: newApplier()}
			if err := r.bootstrap(src); err != nil {
				t.Fatal(err)
			}
			return running{r.app, func() map[string]string { return dumpCursor(r.DB().NewIter(IterOptions{})) }, r.Close}
		}},
		{"follower-loopback", func(t *testing.T, src *scriptedSource) running {
			srv := replnet.Serve(listenLoopback(t), replnet.Config{
				Bootstrap: func(w io.Writer) (replnet.BatchSource, uint64, error) { return exportPinned(src, w) },
				Released:  src.horizon.Load,
				Heartbeat: 20 * time.Millisecond,
				DeadAfter: 5 * time.Second,
			})
			f := followT(t, srv.Addr().String(), FollowerOptions{ID: "scripted", DeadAfter: 5 * time.Second})
			return running{f.app, func() map[string]string { return dumpCursor(f.DB().NewIter(IterOptions{})) },
				func() { f.Close(); srv.Close() }}
		}},
		{"reshard-target", func(t *testing.T, src *scriptedSource) running {
			donor, _ := Open(reshardOpts(2))
			topts := Options{Shards: 4} // default sizing: room for the script's 8 KB values
			topts.setDefaults()
			target, _ := shard.Open(shardConfig(topts, 2, donor.trace, donor.stw, donor.phases))
			app := newApplier()
			donor.rstate.phase.Store(reshardSnapshot)
			if _, err := app.bootstrap(src, donor.reshardTarget(target, app), nil); err != nil {
				t.Fatal(err)
			}
			donor.rstate.phase.Store(reshardTail)
			done := make(chan struct{})
			go func() {
				defer close(done)
				app.fail(app.tail(tailForever))
			}()
			return running{app, func() map[string]string { return dumpCursor(target.Handle(0).NewIter(core.IterOptions{})) },
				func() { app.feed.Close(); <-done; target.Shutdown(); donor.Close() }}
		}},
	}

	for _, fe := range frontEnds {
		t.Run(fe.name, func(t *testing.T) {
			src := &scriptedSource{snap: snap.Bytes(), anchor: A, batches: make(chan repl.Batch)}
			src.horizon.Store(A)
			run := fe.start(t, src)
			defer run.stop()
			app := run.app
			if w := app.state().applied; w != A {
				t.Fatalf("watermark after bootstrap = %d, want anchor %d", w, A)
			}
			spy := &spyTarget{}
			spy.attach(app)

			want := make(map[string]string, len(model))
			for k, v := range model {
				want[k] = v
			}
			var wantBytes uint64
			var wantOps []appliedOp
			for i, b := range script {
				for _, e := range b.Entries {
					if e.Epoch <= A {
						continue
					}
					wantOps = append(wantOps, appliedOp{e.Op, string(e.Key), b.Epoch - 1})
					wantBytes += uint64(len(e.Key) + len(e.Val))
					if e.Op == ChangeDelete {
						delete(want, string(e.Key))
					} else {
						want[string(e.Key)] = string(e.Val)
					}
				}
				src.push(b)
				if err := app.wait(b.Epoch, 15*time.Second); err != nil {
					t.Fatalf("batch %d (horizon %d): %v", i, b.Epoch, err)
				}
				got := run.dump()
				if len(got) != len(want) {
					t.Fatalf("batch %d: %d keys, want %d", i, len(got), len(want))
				}
				for k, v := range want {
					if got[k] != v {
						t.Fatalf("batch %d: key %q = %.20q, want %.20q", i, k, got[k], v)
					}
				}
				ops, ckpts := spy.snapshot()
				if ckpts != i+1 {
					t.Fatalf("batch %d: %d checkpoints, want one per released batch", i, ckpts)
				}
				// Every mutation above the anchor, in order, each landed
				// while the watermark still named the previous batch — so
				// nothing at or below A was re-applied and no non-final
				// chunk moved the watermark.
				if len(ops) != len(wantOps) {
					t.Fatalf("batch %d: %d target mutations, want %d", i, len(ops), len(wantOps))
				}
				for j := range ops {
					if ops[j] != wantOps[j] {
						t.Fatalf("batch %d: mutation %d = %+v, want %+v", i, j, ops[j], wantOps[j])
					}
				}
				if gotBytes := app.state().bytes; gotBytes != wantBytes {
					t.Fatalf("batch %d: applied bytes %d, want %d (every chunk counts)", i, gotBytes, wantBytes)
				}
			}

			// The failing batch: the feed stops (Replica, reshard) or the
			// session ends and re-bootstraps (Follower); either way the
			// watermark never names a batch that did not land whole.
			gen, inProcess := app.state().gen, app.state().feed != nil
			src.push(repl.Batch{Epoch: A + 4, Entries: failing})
			if !app.waitUntil(15*time.Second, func() bool { return app.err != nil || app.gen > gen }) {
				t.Fatal("failed put neither stopped the feed nor forced a re-bootstrap")
			}
			if w := app.state().applied; w > A+3 {
				t.Fatalf("watermark %d after a failed put, want at most %d", w, A+3)
			}
			if ferr := app.state().err; ferr != nil && !errors.Is(ferr, ErrKeyTooLarge) {
				t.Fatalf("feed stopped with %v, want ErrKeyTooLarge", ferr)
			}
			if _, ckpts := spy.snapshot(); ckpts != len(script) {
				t.Fatalf("%d checkpoints after the failed batch, want %d", ckpts, len(script))
			}
			if inProcess && src.unpinned.Load() == 0 {
				t.Fatal("in-process feed never unpinned after its first delivery")
			}
		})
	}
}
