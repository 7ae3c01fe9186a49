package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"incll/internal/core"
	"incll/internal/nvm"
)

// zipfs holds the workload's read-only distributions; computing zeta over
// a million keys is input generation, not set-up, so it is done once.
type zipfs struct{ key, length *zipf }

func newZipfs(w *workload) zipfs {
	var z zipfs
	if w.kind == kindC || w.kind == kindE {
		z.key = newZipf(w.keys, zipfTheta)
	}
	if w.kind == kindE {
		z.length = newZipf(50, zipfTheta)
	}
	return z
}

// setup is Open + preload + first Checkpoint, timed as a whole. Freed
// memory goes back to the OS first, so every set-up faults its arenas in
// afresh, as the first one in a process does, whatever ran before it.
func setup(w *workload, open func() target) (target, time.Duration) {
	debug.FreeOSMemory()
	t0 := time.Now()
	tg := open()
	preload(w, tg.handle(0))
	tg.checkpoint()
	return tg, time.Since(t0)
}

// headroomLimit is how full the durable heap or an external-log segment
// may get before a run is refused: the store panics on exhaustion, and a
// benchmark must fail fast with a reason, not die mid-run.
const headroomLimit = 0.7

// extlogEntryWords is the log footprint of one logged node.
const extlogEntryWords = (4 + core.NodeWords + nvm.WordsPerLine - 1) / nvm.WordsPerLine * nvm.WordsPerLine

// checkHeadroom is called at every driver checkpoint with the counters
// taken just before it and just after the previous one. Below the façade
// the fill levels are exact; through it only the logged-node count is
// visible, so a segment's fill is bounded from above by assuming one worker
// logged every node of its shard (the router spreads keys evenly).
func checkHeadroom(w *workload, epochStart, now counters) error {
	logWords := float64(now.logged-epochStart.logged) * extlogEntryWords / float64(w.shards)
	if now.internals {
		if frac := float64(now.heapUsed) / float64(now.heapWords); frac > headroomLimit {
			return fmt.Errorf("%s: durable heap %.0f%% full (limit %.0f%%): raise heapWords", w.name, 100*frac, 100*headroomLimit)
		}
	}
	if frac := logWords / float64(w.logSegWords); frac > headroomLimit {
		return fmt.Errorf("%s: external-log segment up to %.0f%% full in one epoch (limit %.0f%%): raise logSegWords", w.name, 100*frac, 100*headroomLimit)
	}
	return nil
}

// countResult is what the deterministic count pass measured.
type countResult struct {
	ops  uint64
	wall time.Duration // main phase: generation, ops, verification, checkpoints

	delta     counters          // main-phase change of every counter
	inCkpt    nvm.StatsSnapshot // the part of delta.nvm spent inside Checkpoint calls
	ckpts     int
	ckptTime  time.Duration
	ckptLines int
	limboMax  int64
	heapUsed  uint64  // heap high-water mark at the end, words (internals only)
	heapFrac  float64 // heapUsed ÷ heap size
	heapDelta int64   // heap high-water change over the main phase, words
	keys      int     // keys the model holds at the end of the main phase

	hists      [numOpKinds]hist // traced pass only
	scanKeys   uint64
	commitTime time.Duration

	// crash cycles (façade rung only)
	recoveries []time.Duration
	replayed   []int // external-log entries applied by each recovery
	lazy       int64 // nodes repaired lazily across all cycles

	attempted, failed uint64
	firstFailure      string
}

func (r *countResult) note(failed uint64, first string) {
	r.failed += failed
	if r.firstFailure == "" {
		r.firstFailure = first
	}
}

// countPass replays the seed's op stream with one client and no timers:
// the driver checkpoints every w.ckptEvery ops, so every counter repeats
// exactly. With a tracer every op is timed and spanned (the traced pass).
// With crash set (façade rung only) it ends with the crash cycles.
func countPass(w *workload, tg target, seed uint64, z zipfs, tr *tracer, verify, crash bool) (countResult, error) {
	var r countResult
	m := newModel(w, 0, 1)
	g := newGenerator(w, seed, 0, 1, z.key, z.length)
	c := newClient(w, 0, tg.handle(0), g, m)
	c.verify = verify
	if tr != nil {
		c.tr, c.sampleEvery = tr, 1
	}

	before := tg.counters()
	epochStart := before
	start := time.Now()
	sinceCkpt := uint64(0)
	for r.ops < w.countOps {
		n := min(blockOps, w.countOps-r.ops, w.ckptEvery-sinceCkpt)
		c.runBlock(int(n))
		r.ops += n
		sinceCkpt += n
		if sinceCkpt < w.ckptEvery {
			continue
		}
		sinceCkpt = 0
		pre := tg.counters()
		if err := checkHeadroom(w, epochStart, pre); err != nil {
			return r, err
		}
		r.limboMax = max(r.limboMax, pre.limbo)
		id := tr.begin("checkpoint", "")
		t0 := time.Now()
		r.ckptLines += tg.checkpoint()
		r.ckptTime += time.Since(t0)
		tr.end(id)
		r.ckpts++
		epochStart = tg.counters()
		r.inCkpt = r.inCkpt.Add(epochStart.nvm.Sub(pre.nvm))
	}
	r.wall = time.Since(start)
	after := tg.counters()
	r.delta = after.sub(before)
	r.heapDelta = int64(after.heapUsed) - int64(before.heapUsed)
	r.heapUsed = after.heapUsed
	if after.internals {
		r.heapFrac = float64(after.heapUsed) / float64(after.heapWords)
	}
	if verify {
		r.note(verifyAll(w, c.h, []*model{m}))
	}

	r.keys = expectedKeys(w, []*model{m})
	if crash {
		crashCycles(w, tg.(*dbTarget), c, seed, tr, &r)
	}
	r.hists, r.scanKeys, r.commitTime = c.hists, c.scanKeys, c.commitTime
	r.attempted += c.attempted
	r.note(c.failed, c.firstFailure)
	return r, nil
}

// crashCycles: checkpoint, w.crashWrites un-checkpointed writes, power
// failure with half the dirty lines surviving, timed Reopen, full verify.
// Single-key writes after the last checkpoint must be gone (the model is
// rolled back to it); transfers are durable at commit and must all be
// there.
func crashCycles(w *workload, db *dbTarget, c *client, seed uint64, tr *tracer, r *countResult) {
	for i := 0; i < w.crashCycles; i++ {
		cid := tr.begin("crash", "incll")
		db.checkpoint()
		committedModel, committedGen := c.m.clone(), c.g.clone()
		c.g.writesOnly = true
		for left := w.crashWrites; left > 0; {
			n := min(blockOps, left)
			c.runBlock(int(n))
			left -= n
		}
		c.g.writesOnly = false
		if w.kind != kindTxn {
			committedGen.r = c.g.r // keep drawing fresh keys in the next cycle
			c.m, c.g = committedModel, committedGen
		}

		rid := tr.begin("reopen", "")
		d, info := db.crashAndReopen(int64(seed) + int64(i))
		tr.end(rid)
		r.recoveries = append(r.recoveries, d)
		r.replayed = append(r.replayed, info.LogEntriesApplied)

		vid := tr.begin("verify", "")
		c.h = db.handle(0)
		r.note(verifyAll(w, c.h, []*model{c.m}))
		if got, want := db.db.RebuildLen(), expectedKeys(w, []*model{c.m}); got != want {
			r.note(1, fmt.Sprintf("after crash %d: RebuildLen = %d, want %d", i, got, want))
		}
		r.lazy += db.db.Stats().LazyRecoveries.Load()
		tr.end(vid)
		tr.end(cid)
	}
}

// repResult is one repetition of the timed pass.
type repResult struct {
	ops   uint64
	wall  time.Duration
	hists [numOpKinds]hist
}

func (r *repResult) throughput() float64 { return float64(r.ops) / r.wall.Seconds() }

// folded merges the per-kind histograms of the given kinds.
func folded(hs *[numOpKinds]hist, kinds ...opKind) *hist {
	out := new(hist)
	for _, k := range kinds {
		out.merge(&hs[k])
	}
	return out
}

var allKinds = []opKind{opGet, opPut, opInsert, opDelete, opScan, opTxn}

type timedResult struct {
	reps      []repResult
	beside    []repResult // the transient tree's repetitions, interleaved (traced run, ycsb_a/ycsb_c)
	ckpts     []time.Duration
	ckptLines int
	wall      time.Duration // sum of rep walls
	memMB     float64

	conflicts         uint64
	attempted, failed uint64
	firstFailure      string
}

const (
	epochInterval = 64 * time.Millisecond // the paper's checkpoint period
	sampleEvery   = 8                     // one op in 8 is timed
)

// session is two closed-loop clients on one target; with ticker set, each
// repetition also runs the driver's own 64 ms ticker, which calls and
// times Checkpoint (the outside view of the stop-the-world window).
type session struct {
	w       *workload
	tg      target
	ticker  bool
	clients []*client
	models  []*model

	ckpts       []time.Duration
	ckptLines   int
	headroomErr error
}

func newSession(w *workload, tg target, seed uint64, z zipfs, ticker bool) *session {
	s := &session{w: w, tg: tg, ticker: ticker}
	for i := 0; i < workers; i++ {
		m := newModel(w, i, workers)
		c := newClient(w, i, tg.handle(i), newGenerator(w, seed, i, workers, z.key, z.length), m)
		c.sampleEvery = sampleEvery
		s.models = append(s.models, m)
		s.clients = append(s.clients, c)
	}
	return s
}

// run drives the clients for d and returns what they did in that time.
func (s *session) run(d time.Duration) repResult {
	var stop atomic.Bool
	var wg sync.WaitGroup
	var before uint64
	start := time.Now()
	for _, c := range s.clients {
		c.hists = [numOpKinds]hist{}
		before += c.attempted
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				c.runBlock(blockOps)
			}
		}()
	}
	tickerDone := make(chan struct{})
	if s.ticker {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.tick(tickerDone)
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	close(tickerDone)
	wg.Wait()
	rep := repResult{wall: time.Since(start)}
	for _, c := range s.clients {
		rep.ops += c.attempted
		for k := range rep.hists {
			rep.hists[k].merge(&c.hists[k])
		}
	}
	rep.ops -= before
	return rep
}

func (s *session) tick(done <-chan struct{}) {
	tk := time.NewTicker(epochInterval)
	defer tk.Stop()
	epochStart := s.tg.counters()
	for {
		select {
		case <-done:
			return
		case <-tk.C:
		}
		pre := s.tg.counters()
		if err := checkHeadroom(s.w, epochStart, pre); err != nil && s.headroomErr == nil {
			s.headroomErr = err
		}
		t0 := time.Now()
		s.ckptLines += s.tg.checkpoint()
		s.ckpts = append(s.ckpts, time.Since(t0))
		epochStart = s.tg.counters()
	}
}

// finish verifies the whole store against the client models and adds the
// session's tallies to res.
func (s *session) finish(res *timedResult) {
	failed, first := verifyAll(s.w, s.clients[0].h, s.models)
	res.failed += failed
	if res.firstFailure == "" {
		res.firstFailure = first
	}
	for _, c := range s.clients {
		res.attempted += c.attempted
		res.failed += c.failed
		res.conflicts += c.conflicts
		if res.firstFailure == "" {
			res.firstFailure = c.firstFailure
		}
	}
}

// timedPlan is the shape of a timed pass: a warm-up, then reps repetitions
// of repLen with a GC before each. beside, when set, is a transient
// masstree measured in alternation with the first besideReps repetitions
// (it has no epochs, so no ticker).
type timedPlan struct {
	warm, repLen time.Duration
	reps         int

	beside     target
	besideLen  time.Duration
	besideReps int
}

// timedPass is the end-to-end measurement.
func timedPass(w *workload, tg target, seed uint64, z zipfs, p timedPlan) (timedResult, error) {
	var res timedResult
	s := newSession(w, tg, seed, z, true)
	var sb *session
	if p.beside != nil {
		sb = newSession(w, p.beside, seed, z, false)
		sb.run(p.warm)
	}
	s.run(p.warm)
	if s.headroomErr != nil {
		return res, s.headroomErr // sized too small: refuse before measuring
	}
	s.ckpts, s.ckptLines = nil, 0
	for i := 0; i < p.reps; i++ {
		runtime.GC()
		rep := s.run(p.repLen)
		res.reps = append(res.reps, rep)
		res.wall += rep.wall
		if sb != nil && i < p.besideReps {
			runtime.GC()
			res.beside = append(res.beside, sb.run(p.besideLen))
		}
	}
	if s.headroomErr != nil {
		return res, s.headroomErr
	}
	res.ckpts, res.ckptLines = s.ckpts, s.ckptLines

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.memMB = float64(ms.HeapInuse) / (1 << 20)

	s.finish(&res)
	if sb != nil {
		sb.finish(&res)
	}
	return res, nil
}
