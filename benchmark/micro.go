package main

import (
	"sync"
	"time"

	"incll/internal/alloc"
	"incll/internal/core"
	"incll/internal/epoch"
	"incll/internal/extlog"
	"incll/internal/nvm"
	"incll/internal/shard"
)

// Isolated timings of each layer's public primitives, recorded beside every
// traced run so its numbers can be read on any machine (Cohet's
// hardware-calibrated simulation method, PAPERS.md): a rung that got slower
// because the simulator's Store got slower says so here.

const microTrials = 5

// perIter runs f (which performs iters operations) microTrials times and
// returns the median nanoseconds per operation; prep, if any, runs untimed
// before each trial.
func perIter(iters int, prep, f func()) float64 {
	var xs []float64
	for t := 0; t < microTrials; t++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		xs = append(xs, float64(time.Since(t0))/float64(iters))
	}
	return median(xs)
}

// both runs f(0) and f(1) on two goroutines at once.
func both(f func(worker int)) {
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

var sink uint64

func microTimings() map[string]float64 {
	out := map[string]float64{}

	const n = 1 << 20
	out["clock.now_ns"] = perIter(n, nil, func() {
		for i := 0; i < n; i++ {
			sink += uint64(time.Now().Nanosecond())
		}
	})

	// nvm: 64 Ki lines, one word touched per line.
	const lines = 1 << 16
	a := nvm.New(nvm.Config{Words: lines * nvm.WordsPerLine})
	touch := func() {
		for l := uint64(1); l < lines; l++ {
			a.Store(l*nvm.WordsPerLine, l)
		}
	}
	out["nvm.load_ns"] = perIter(lines, nil, func() {
		for l := uint64(1); l < lines; l++ {
			sink += a.Load(l * nvm.WordsPerLine)
		}
	})
	out["nvm.store_clean_ns"] = perIter(lines, func() { a.FlushAll() }, touch)
	out["nvm.store_dirty_ns"] = perIter(lines, touch, touch)
	out["nvm.flushall_ns_line"] = perIter(lines, touch, func() { a.FlushAll() })
	out["nvm.crash_ns_line"] = perIter(lines, touch, func() { a.Crash(nvm.RandomPolicy(0.5, 1)) })
	wbFence := func(worker int) {
		base := uint64(1+worker*(lines/2)) * nvm.WordsPerLine
		for i := uint64(0); i < lines/4; i++ {
			off := base + i*nvm.WordsPerLine
			a.Store(off, i)
			a.Writeback(off)
			a.Fence()
		}
	}
	out["nvm.wbfence_ns"] = perIter(lines/4, nil, func() { wbFence(0) })
	out["nvm.wbfence_ns_p2"] = perIter(lines/4, nil, func() { both(wbFence) })

	// alloc and extlog on an arena of their own, under a real epoch manager;
	// the epoch is advanced (untimed) between trials so limbo blocks and log
	// cursors recycle.
	const heapWords, segWords = 1 << 20, 1 << 18
	b := nvm.New(nvm.Config{Words: 1 << 22})
	mgr, _ := epoch.Open(b, b.Reserve(epoch.HeaderWords))
	metaOff := b.Reserve(alloc.MetaWords(2))
	logOff := b.Reserve(extlog.RegionWords(segWords, 1))
	al := alloc.New(b, mgr, metaOff, b.Reserve(heapWords), heapWords, 2)
	lg := extlog.New(b, mgr, logOff, segWords, 1)
	lg.Recover()
	advance := func() { mgr.Advance() }

	const pairs = 4096
	valueWords := uint64(1 + 256/8) // a 256-byte value block
	pair := func(worker int) {
		h := al.Handle(worker)
		for i := 0; i < pairs; i++ {
			h.Free(h.Alloc(valueWords), valueWords)
		}
	}
	out["alloc.pair_ns"] = perIter(pairs, advance, func() { pair(0) })
	out["alloc.pair_ns_p2"] = perIter(pairs, advance, func() { both(pair) })

	node := al.Handle(0).AllocNode()
	const logged = 2048
	out["extlog.logobject_ns"] = perIter(logged, advance, func() {
		w := lg.Writer(0)
		for i := 0; i < logged; i++ {
			if !w.LogObject(node, core.NodeWords) {
				panic("micro: extlog segment sized too small")
			}
		}
	})

	var key [8]byte
	out["shard.route_ns"] = perIter(n, nil, func() {
		for i := uint64(0); i < n; i++ {
			putKey(key[:], i)
			sink += uint64(shard.Route(key[:], 4))
		}
	})
	return out
}
