package shard

import "incll/internal/ycsb"

// KeyHash folds the key bytes FNV-1a style into 64 bits. It is the one
// key hash: Route scrambles it into a shard, and the transaction layer
// folds it into a commit-lock stripe. It depends on the key bytes alone.
func KeyHash(k []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range k {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// Route deterministically maps key k to a shard in [0, shards): KeyHash
// passed through the fixed-point scramble the YCSB generator already uses
// (splitmix64's finalizer), so sequential and common-prefix keys spread
// evenly instead of clustering on one shard. Routing is a pure function
// of the bytes — a recovering process re-derives the same placement.
func Route(k []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(ycsb.Scramble(KeyHash(k)) % uint64(shards))
}
