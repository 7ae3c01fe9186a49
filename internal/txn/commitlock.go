package txn

import (
	"slices"
	"sync"
	"time"

	"incll/internal/obs"
)

// lockStripes is the size of the key-granular commit lock table: a power
// of two, and with 64-byte stripes a 64 KiB table. A 5-key commit holds 5
// of 1024 stripes, so two commits on disjoint keys collide on a stripe
// about 2 % of the time — and a collision costs exclusion, never
// correctness.
const lockStripes = 1024

// paddedMutex is a mutex alone on its cache line, so two workers never
// false-share a line over locks they do not logically contend on.
type paddedMutex struct {
	sync.Mutex
	_ [64 - 8]byte
}

// stripeOf hashes a key to its commit-lock stripe (FNV-1a, folded). It
// depends on the key bytes alone: not on the topology, not on the process.
func stripeOf(k []byte) uint16 {
	h := uint64(14695981039346656037)
	for _, c := range k {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return uint16((h ^ h>>32) & (lockStripes - 1))
}

// commitWindow is what one commit attempt holds. It lives inside the Txn,
// so taking and releasing the window allocates nothing while the stripes
// fit stripeBuf.
type commitWindow struct {
	st      *topoState // topology the window runs under; nil while nothing is held
	shards  ShardSet   // every shard read or written: epoch guards held
	wset    ShardSet   // shards written: home shard and the intent's shard word
	stripes []uint16   // key stripes held: ascending, de-duplicated

	stripeBuf [2 * inlineKeys]uint16
}

// acquire takes the commit-window locks and returns the topology the
// window runs under. Lock order: commit guard (shared) → topology load →
// the worker's commit lock → key stripes, ascending → per-shard epoch
// guards. The topology is loaded only after the guard is held — advances
// and reshard cutovers take the guard exclusively, so an epoch boundary or
// a topology swap can never interleave with the window, and the
// multi-shard Enter cannot deadlock against a coordinated advance. Every
// commit takes exactly one worker lock, before any stripe, and stripes
// only in ascending order, so no cycle of waiting commits can form.
func (m *Manager) acquire(t *Txn) *topoState {
	// Sampled commit: split the entry latency into the shared-guard wait
	// (blocked behind an epoch advance) and the commit locks behind it
	// (blocked behind conflicting or same-worker commits).
	sampled := m.phases.Sampled(t.worker)
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	m.guard.RLock()
	if sampled {
		t1 := time.Now()
		m.phases.Observe(obs.PhaseGuardWait, t1.Sub(t0))
		t0 = t1
	}

	st := m.topo.Load()
	cw := &t.cw
	cw.st = st
	cw.shards, cw.wset = NewShardSet(len(st.stores)), NewShardSet(len(st.stores))
	cw.stripes = cw.stripeBuf[:0]
	for i := range t.writes {
		k := t.writes[i].Key
		s := st.shardOf(k)
		cw.wset.Add(s)
		cw.shards.Add(s)
		cw.stripes = append(cw.stripes, stripeOf(k))
	}
	for i := range t.reads {
		k := t.reads[i].key
		cw.shards.Add(st.shardOf(k))
		cw.stripes = append(cw.stripes, stripeOf(k))
	}
	slices.Sort(cw.stripes)
	cw.stripes = slices.Compact(cw.stripes)

	st.workerMu[t.worker].Lock()
	for _, s := range cw.stripes {
		m.stripes[s].Lock()
	}
	cw.shards.ForEach(func(i int) { st.stores[i].Epochs().Enter() })
	if sampled {
		m.phases.Observe(obs.PhaseCommitLockWait, time.Since(t0))
	}
	return st
}

// release drops what acquire took, once: the normal path and the
// injected-crash unwind both call it.
func (m *Manager) release(t *Txn) {
	cw := &t.cw
	st := cw.st
	if st == nil {
		return
	}
	cw.st = nil
	cw.shards.ForEach(func(i int) { st.stores[i].Epochs().Exit() })
	for _, s := range cw.stripes {
		m.stripes[s].Unlock()
	}
	st.workerMu[t.worker].Unlock()
	m.guard.RUnlock()
}
