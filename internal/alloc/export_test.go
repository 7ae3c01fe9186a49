package alloc

import "incll/internal/nvm"

// Shards returns the number of shards.
func (al *Allocator) Shards() int { return al.numShards }

// stack walks the stack whose word is w down to the page stop (0: to the
// end of the links) and returns the offsets it holds and its pages. A walk
// longer than the heap has lines stops there: the links form a cycle.
func (al *Allocator) stack(w, stop uint64) (objs, pages []uint64) {
	for w != 0 && len(pages) <= int(al.heapEnd/nvm.WordsPerLine) {
		page := stackPage(w)
		pages = append(pages, page)
		for i := uint64(1); i <= stackCount(w); i++ {
			objs = append(objs, al.slot(page, i))
		}
		if page == stop {
			break
		}
		w = al.arena.Load(page + pageLink)
	}
	return objs, pages
}

// partialBelowTop reports whether a page below the top of the stack whose
// word is w (walked down to the page stop, 0: to the end) holds fewer than
// pageSlots offsets: the splice's merge keeps every partial page on top.
func (al *Allocator) partialBelowTop(w, stop uint64) bool {
	for i := 0; w != 0 && i <= int(al.heapEnd/nvm.WordsPerLine); i++ {
		if i > 0 && stackCount(w) != pageSlots {
			return true
		}
		if stackPage(w) == stop {
			break
		}
		w = al.arena.Load(stackPage(w) + pageLink)
	}
	return false
}

// freeAt returns the allocatable objects of size words that head line off
// holds: the free stack's offsets, then the carved run's objects.
func (al *Allocator) freeAt(off, size uint64) []uint64 {
	objs, _ := al.stack(al.arena.Load(off+chFree), 0)
	run := al.arena.Load(off + chRun)
	for i := uint64(0); i < run>>32; i++ {
		objs = append(objs, stackPage(run)+i*size)
	}
	return objs
}

// limboAt returns the limbo offsets of head line off, walking from the top
// page to the bottom page the limbo word names.
func (al *Allocator) limboAt(off uint64) []uint64 {
	limbo := al.arena.Load(off + chLimbo)
	objs, _ := al.stack(limbo, limboTail(limbo))
	return objs
}

// pagesAt returns the offset pages the stacks of head line off occupy.
func (al *Allocator) pagesAt(off uint64) []uint64 {
	limbo := al.arena.Load(off + chLimbo)
	_, free := al.stack(al.arena.Load(off+chFree), 0)
	_, lim := al.stack(limbo, limboTail(limbo))
	return append(free, lim...)
}

// FreeListLen counts shard s's class-c allocatable objects.
func (al *Allocator) FreeListLen(s, c int) int {
	return len(al.freeAt(al.classOff(s, c), classWords[c]))
}

// LimboLen counts shard s's class-c limbo offsets.
func (al *Allocator) LimboLen(s, c int) int { return len(al.limboAt(al.classOff(s, c))) }
