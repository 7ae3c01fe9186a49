package alloc

// Shards returns the number of shards.
func (al *Allocator) Shards() int { return al.numShards }

// list walks the shard s class-c list whose head is word which of the class
// head line (chHead or chLimbo).
func (al *Allocator) list(s, c int, which uint64) []uint64 {
	var objs []uint64
	for obj := al.arena.Load(al.classOff(s, c) + which); obj != 0; obj = al.loadNext(c, obj) {
		objs = append(objs, obj)
	}
	return objs
}

// FreeListLen walks shard s's class-c allocatable list.
func (al *Allocator) FreeListLen(s, c int) int { return len(al.list(s, c, chHead)) }

// LimboLen walks shard s's class-c limbo list.
func (al *Allocator) LimboLen(s, c int) int { return len(al.list(s, c, chLimbo)) }
