package alloc

// Shards returns the number of shards.
func (al *Allocator) Shards() int { return al.numShards }

// FreeListLen walks shard s's class-c allocatable list.
func (al *Allocator) FreeListLen(s, c int) int {
	n := 0
	for obj := al.arena.Load(al.classOff(s, c) + chHead); obj != 0; obj = al.loadNext(obj) {
		n++
	}
	return n
}

// LimboLen walks shard s's class-c limbo list.
func (al *Allocator) LimboLen(s, c int) int {
	n := 0
	for obj := al.arena.Load(al.classOff(s, c) + chLimbo); obj != 0; obj = al.loadNext(obj) {
		n++
	}
	return n
}
