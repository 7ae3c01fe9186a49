package txn

import "math/bits"

// ShardSet is the set of shards a transaction touches. Clusters of up to
// 64 shards — the common case by far — stay on a one-word inline
// representation with zero heap allocation; larger clusters spill to a
// []uint64 bitset sized at first use. The commit window uses it for the
// per-shard epoch guards (Enter and Exit each touched shard once) and the
// home shard (Min), whose intent log takes the record. It orders no locks:
// commits exclude each other by key (see commitlock.go).
type ShardSet struct {
	word uint64   // inline representation when wide == nil (shards 0..63)
	wide []uint64 // spilled bitset when the cluster exceeds 64 shards
}

// NewShardSet returns an empty set able to hold shards [0, shards).
func NewShardSet(shards int) ShardSet {
	if shards <= 64 {
		return ShardSet{}
	}
	return ShardSet{wide: make([]uint64, (shards+63)/64)}
}

// Add inserts shard s.
func (b *ShardSet) Add(s int) {
	if b.wide == nil {
		b.word |= 1 << uint(s)
		return
	}
	b.wide[s>>6] |= 1 << uint(s&63)
}

// Min returns the lowest shard in the set — the transaction's home shard,
// whose epoch stamps the intent record — or -1 if the set is empty.
func (b *ShardSet) Min() int {
	if b.wide == nil {
		if b.word == 0 {
			return -1
		}
		return bits.TrailingZeros64(b.word)
	}
	for i, w := range b.wide {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// ForEach calls f for every shard in the set in ascending order.
func (b *ShardSet) ForEach(f func(s int)) {
	if b.wide == nil {
		for w := b.word; w != 0; w &= w - 1 {
			f(bits.TrailingZeros64(w))
		}
		return
	}
	for i, w := range b.wide {
		for ; w != 0; w &= w - 1 {
			f(i<<6 + bits.TrailingZeros64(w))
		}
	}
}
