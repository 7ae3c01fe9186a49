package txn

import (
	"sort"

	"incll/internal/extlog"
)

// recover replays committed-but-rolled-back transactions after a restart.
//
// Decision table, per intent record (see DESIGN.md for the full matrix):
//
//	checksum invalid / stale generation  → ignore: the record's one
//	    fence never completed, so the commit was never acknowledged. It
//	    may have applied writes — even have a marked header in NVM over
//	    missing content lines — but it ran in an epoch that cannot have
//	    committed, so the epoch rollback already removed them.
//	mark absent                          → ignore: the transaction never
//	    reached its commit point; whatever it applied ran in an epoch that
//	    cannot have committed (the commit guard pins the epoch for the
//	    whole window), so the epoch rollback already removed it.
//	mark present, epoch committed        → ignore: the checkpoint that
//	    committed the epoch also made every applied write durable.
//	topology version not live            → skip (counted in Stats.Stale):
//	    the record committed under a topology the durable manifest has
//	    since retired. Its writes were migrated to the new shard set by
//	    the reshard before the manifest committed, so replaying it here —
//	    through the *new* router — would resurrect state the cutover
//	    already carried over, onto the wrong shards.
//	mark present, epoch failed           → replay: the rollback undid the
//	    applied writes; re-apply the write set from the record.
//
// "Epoch failed" is judged by the record's home store, whose epoch manager
// already folded in the shard coordinator's commit record (see
// epoch.OpenCoordinated) — so cross-shard intents are decided by the same
// single fenced line that decides the cluster checkpoint.
//
// Replay runs in commit-sequence order (conflicting transactions committed
// under a shared key lock, so seq order is their real order), then one cluster
// checkpoint commits the replay epoch — without it, a second crash would
// roll the re-applied writes back while the retired intents could no
// longer restore them — and finally the intent generation is retired so
// no record replays twice. A crash anywhere inside recovery simply re-runs
// it: until the generation bump, the same records replay to the same
// state.
func (m *Manager) recover() int {
	type pending struct {
		seq uint64
		ops []extlog.IntentOp
	}
	st := m.topo.Load()
	var todo []pending
	for _, s := range st.stores {
		for _, rec := range s.Intents().ScanIntents() {
			if rec.TopoVer != st.version {
				// Defensive: a reshard retires the donor arenas wholesale,
				// so stale-topology records shouldn't normally survive
				// into a scan — but if one does, replaying it through the
				// live router would be wrong. Skip and count.
				m.stats.Stale.Add(1)
				continue
			}
			if rec.Committed && s.Epochs().IsFailed(rec.Epoch) {
				todo = append(todo, pending{seq: rec.Seq, ops: rec.Ops})
			}
		}
	}
	if len(todo) == 0 {
		return 0
	}
	sort.Slice(todo, func(a, b int) bool { return todo[a].seq < todo[b].seq })
	for _, p := range todo {
		for _, op := range p.ops {
			s := st.stores[st.shardOf(op.Key)]
			if op.Delete {
				s.Delete(op.Key)
			} else {
				s.PutBytes(op.Key, op.Val)
			}
		}
	}
	st.advance()
	for _, s := range st.stores {
		s.Intents().RetireIntents()
	}
	m.stats.Replays.Add(int64(len(todo)))
	return len(todo)
}
