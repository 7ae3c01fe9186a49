package epoch

import (
	"sync"
	"testing"
	"time"

	"incll/internal/nvm"
)

func newManager(t testing.TB) (*nvm.Arena, *Manager, Status) {
	t.Helper()
	a := nvm.New(nvm.Config{Words: 1 << 14})
	off := a.Reserve(HeaderWords)
	m, st := Open(a, off)
	return a, m, st
}

func TestFreshStartBeginsAtEpochOne(t *testing.T) {
	_, m, st := newManager(t)
	if st != FreshStart {
		t.Fatalf("status = %v, want fresh-start", st)
	}
	if m.Current() != 1 || m.CurrentExec() != 1 {
		t.Fatalf("Current=%d CurrentExec=%d, want 1,1", m.Current(), m.CurrentExec())
	}
	if m.FailedCount() != 0 {
		t.Fatalf("fresh start has %d failed epochs", m.FailedCount())
	}
}

func TestAdvanceIncrementsAndCommits(t *testing.T) {
	a, m, _ := newManager(t)
	off := a.Reserve(8)
	a.Store(off, 99)
	m.Advance()
	if m.Current() != 2 {
		t.Fatalf("Current = %d after one advance, want 2", m.Current())
	}
	// The advance committed the store.
	a.Crash(nvm.PersistNone)
	if got := a.Load(off); got != 99 {
		t.Fatalf("store lost across advance+crash: %d", got)
	}
}

func TestCrashMidEpochIsDetectedAndRecorded(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 14})
	off := a.Reserve(HeaderWords)
	m, _ := Open(a, off)
	m.Advance() // epoch 2
	a.Crash(nvm.RandomPolicy(0.5, 42))

	m2, st := Open(a, off)
	if st != CrashRecovered {
		t.Fatalf("status = %v, want crash-recovered", st)
	}
	if !m2.IsFailed(2) {
		t.Fatal("epoch 2 should be failed")
	}
	if m2.IsFailed(1) {
		t.Fatal("epoch 1 was committed by the advance; must not be failed")
	}
	if m2.Current() != 3 || m2.CurrentExec() != 3 {
		t.Fatalf("new execution at %d/%d, want 3/3", m2.Current(), m2.CurrentExec())
	}
}

func TestCleanShutdownHasNoFailedEpoch(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 14})
	off := a.Reserve(HeaderWords)
	m, _ := Open(a, off)
	m.Advance()
	m.Shutdown()
	a.Crash(nvm.PersistNone) // power loss after shutdown is harmless

	m2, st := Open(a, off)
	if st != CleanRestart {
		t.Fatalf("status = %v, want clean-restart", st)
	}
	if m2.FailedCount() != 0 {
		t.Fatalf("%d failed epochs after clean shutdown", m2.FailedCount())
	}
	if m2.Current() != 3 {
		t.Fatalf("resume epoch = %d, want 3", m2.Current())
	}
}

func TestFailedSetSurvivesMultipleCrashes(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 14})
	off := a.Reserve(HeaderWords)
	var failed []uint64
	for i := 0; i < 5; i++ {
		m, _ := Open(a, off)
		cur := m.Current()
		m.Advance()
		m.Advance()
		failed = append(failed, m.Current())
		_ = cur
		a.Crash(nvm.RandomPolicy(0.3, int64(i)))
	}
	m, st := Open(a, off)
	if st != CrashRecovered {
		t.Fatalf("status = %v", st)
	}
	for _, e := range failed {
		if !m.IsFailed(e) {
			t.Fatalf("failed epoch %d forgotten (set: %d entries)", e, m.FailedCount())
		}
	}
	if m.FailedCount() != len(failed) {
		t.Fatalf("FailedCount = %d, want %d", m.FailedCount(), len(failed))
	}
}

func TestEpochsNeverReused(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 14})
	off := a.Reserve(HeaderWords)
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		m, _ := Open(a, off)
		for j := 0; j < 3; j++ {
			e := m.Current()
			if seen[e] {
				t.Fatalf("epoch %d reused", e)
			}
			seen[e] = true
			m.Advance()
		}
		a.Crash(nvm.PersistAll)
	}
}

func TestIsFailedZeroEpoch(t *testing.T) {
	_, m, _ := newManager(t)
	if m.IsFailed(0) {
		t.Fatal("epoch 0 (pre-history) must never be failed")
	}
}

func TestOnAdvanceCallbackRuns(t *testing.T) {
	_, m, _ := newManager(t)
	var got []uint64
	m.OnAdvance(func(e uint64) { got = append(got, e) })
	m.Advance()
	m.Advance()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("callback epochs = %v, want [2 3]", got)
	}
}

func TestEnterExitBlocksAdvance(t *testing.T) {
	_, m, _ := newManager(t)
	m.Enter()
	done := make(chan struct{})
	go func() {
		m.Advance()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Advance completed while a worker was inside Enter/Exit")
	case <-time.After(20 * time.Millisecond):
	}
	m.Exit()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Advance never completed after Exit")
	}
}

func TestConcurrentWorkersAndAdvances(t *testing.T) {
	a, m, _ := newManager(t)
	off := a.Reserve(1 << 10)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Enter()
				a.Store(off+uint64(w)*nvm.WordsPerLine, i)
				m.Exit()
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		m.Advance()
	}
	close(stop)
	wg.Wait()
	if m.Current() != 51 {
		t.Fatalf("Current = %d after 50 advances, want 51", m.Current())
	}
}

func TestTickerAdvances(t *testing.T) {
	_, m, _ := newManager(t)
	var tk Ticker
	tk.Start(2*time.Millisecond, func() { m.Advance() })
	time.Sleep(30 * time.Millisecond)
	tk.Stop()
	if m.Advances() == 0 {
		t.Fatal("ticker never advanced the epoch")
	}
}

func TestAdvanceCountsFlushedLines(t *testing.T) {
	a, m, _ := newManager(t)
	off := a.Reserve(1 << 10)
	for i := uint64(0); i < 10; i++ {
		a.Store(off+i*nvm.WordsPerLine, i+1)
	}
	if n := m.Advance(); n < 10 {
		t.Fatalf("Advance flushed %d lines, want >= 10", n)
	}
}

func TestPrepareCommitEqualsAdvance(t *testing.T) {
	a, m, _ := newManager(t)
	off := a.Reserve(8)
	a.Store(off, 7)
	n := m.Prepare()
	if n == 0 {
		t.Fatal("Prepare flushed nothing")
	}
	if m.Current() != 1 {
		t.Fatalf("Current = %d after Prepare, want still 1", m.Current())
	}
	m.Commit()
	if m.Current() != 2 {
		t.Fatalf("Current = %d after Commit, want 2", m.Current())
	}
	a.Crash(nvm.PersistNone)
	if got := a.Load(off); got != 7 {
		t.Fatalf("store lost across prepare+commit+crash: %d", got)
	}
}

func TestCrashBetweenPrepareAndCommitFailsEpochWithoutOracle(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 14})
	off := a.Reserve(HeaderWords)
	m, _ := Open(a, off)
	m.Prepare() // epoch 1 fully flushed, not committed
	a.Crash(nvm.PersistNone)

	m2, st := Open(a, off)
	if st != CrashRecovered {
		t.Fatalf("status = %v, want crash-recovered", st)
	}
	if !m2.IsFailed(1) {
		t.Fatal("prepared-but-uncommitted epoch 1 must be failed without an oracle")
	}
	if m2.Current() != 2 {
		t.Fatalf("Current = %d, want 2", m2.Current())
	}
}

func TestCoordinatedOracleCompletesInterruptedCommit(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 14})
	off := a.Reserve(HeaderWords)
	m, _ := Open(a, off)
	data := a.Reserve(8)
	a.Store(data, 55)
	m.Prepare() // epoch 1 flushed; coordinator committed it elsewhere
	a.Crash(nvm.PersistNone)

	m2, st := OpenCoordinated(a, off, func(e uint64) bool { return e <= 1 })
	if st != CrashRecovered {
		t.Fatalf("status = %v, want crash-recovered", st)
	}
	if m2.IsFailed(1) {
		t.Fatal("globally committed epoch 1 must not be failed")
	}
	// The empty successor epoch is marked failed instead; that rolls back
	// nothing because the world never resumed.
	if !m2.IsFailed(2) {
		t.Fatal("empty successor epoch 2 should be recorded failed")
	}
	if m2.Current() != 3 {
		t.Fatalf("Current = %d, want 3 (same as a store whose commit landed)", m2.Current())
	}
	if got := a.Load(data); got != 55 {
		t.Fatalf("committed data lost: %d", got)
	}
}

func TestCoordinatedOracleUncommittedStillRollsBack(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 14})
	off := a.Reserve(HeaderWords)
	m, _ := Open(a, off)
	m.Prepare()
	a.Crash(nvm.PersistNone)

	m2, _ := OpenCoordinated(a, off, func(e uint64) bool { return false })
	if !m2.IsFailed(1) {
		t.Fatal("epoch the coordinator never committed must be failed")
	}
	if m2.Current() != 2 {
		t.Fatalf("Current = %d, want 2", m2.Current())
	}
}

func TestTickerStartStopIdempotent(t *testing.T) {
	// A second Start while running must be a no-op (one ticker goroutine,
	// the established cadence), and a second Stop must not hang or panic —
	// callers like DB.StartCheckpointer may be invoked twice.
	_, m, _ := newManager(t)
	var tk Ticker
	advance := func() { m.Advance() }
	tk.Start(2*time.Millisecond, advance)
	tk.Start(1*time.Millisecond, advance) // no-op, keeps the first cadence
	time.Sleep(20 * time.Millisecond)
	tk.Stop()
	n := m.Advances()
	if n == 0 {
		t.Fatal("ticker never advanced the epoch")
	}
	tk.Stop() // idempotent
	time.Sleep(10 * time.Millisecond)
	if m.Advances() != n {
		t.Fatal("ticker kept running after Stop (double-Start leaked a goroutine)")
	}
	// Start/Stop cycles keep working after an idempotent no-op pair.
	tk.Start(2*time.Millisecond, advance)
	time.Sleep(10 * time.Millisecond)
	tk.Stop()
	if m.Advances() == n {
		t.Fatal("ticker did not restart after Stop")
	}
}

func TestOnCommitHooks(t *testing.T) {
	_, m, _ := newManager(t)
	var got []uint64
	m.OnCommit(func(e uint64) { got = append(got, e) })
	m.Advance() // commits epoch 1
	m.Advance() // commits epoch 2

	// Late registration (after mutators may exist) must be safe and see
	// only subsequent commits.
	var late []uint64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Enter()
			m.Exit()
		}()
	}
	m.OnCommit(func(e uint64) { late = append(late, e) })
	wg.Wait()
	m.Advance() // commits epoch 3

	// A clean shutdown commits the running epoch without a successor.
	m.Shutdown()

	want := []uint64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("commit hook fired for %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("commit hook fired for %v, want %v", got, want)
		}
	}
	if len(late) != 2 || late[0] != 3 || late[1] != 4 {
		t.Fatalf("late hook fired for %v, want [3 4]", late)
	}
}

func TestLastCommittedSkipsFailedEpochs(t *testing.T) {
	a, m, _ := newManager(t)
	if m.LastCommitted() != 0 {
		t.Fatalf("fresh start: LastCommitted = %d, want 0", m.LastCommitted())
	}
	m.Advance()
	m.Advance() // epochs 1 and 2 committed, 3 running
	// Epoch 3 fails, then the empty epoch 4 fails too.
	for i := 0; i < 2; i++ {
		a.Crash(nvm.RandomPolicy(0.5, int64(i)))
		a.ResetReservations()
		m, _ = Open(a, a.Reserve(HeaderWords))
	}
	if m.Current() != 5 || m.LastCommitted() != 2 {
		t.Fatalf("after two crashes: Current=%d LastCommitted=%d, want 5 and 2", m.Current(), m.LastCommitted())
	}
	m.Advance()
	if m.LastCommitted() != 5 {
		t.Fatalf("after an advance: LastCommitted = %d, want 5", m.LastCommitted())
	}
}

// BenchmarkEnterExit measures the reader side of the epoch guard: every
// operation enters and exits it once. Run at -cpu 1,2 the ratio of the two
// readings is what all workers sharing one guard costs as cores are added.
func BenchmarkEnterExit(b *testing.B) {
	_, m, _ := newManager(b)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Enter()
			m.Exit()
		}
	})
}
