package nvm

// persistLines copies line lines[i] of src into the same line of dst, for
// every i, as a global cache flush writes lines back to NVM: each 64-byte
// line is written with four non-temporal 16-byte stores (MOVNTDQ), which
// neither read the destination line for ownership nor leave it in the
// cache, while the source line eight entries ahead is prefetched, so up to
// eight source misses are in flight instead of one. One SFENCE at the end
// orders every non-temporal store before any store the caller makes after
// the return.
//
// dst and src must start on a 64-byte boundary (New aligns both images)
// and hold every line named; the line numbers are not bounds-checked. The
// kernel cannot be preempted, so a caller passes at most one sweep chunk
// (4096 lines) at a time. Its accesses are invisible to the race detector.
//
//go:noescape
func persistLines(dst, src []uint64, lines []uint32)
