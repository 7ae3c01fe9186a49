package txn

import (
	"math/rand"
	"sort"
	"testing"
)

// TestShardSetInlineStaysInline pins the representation contract: sets
// for clusters of ≤ 64 shards never allocate a spill slice, so the
// per-transaction hot path stays a one-word value.
func TestShardSetInlineStaysInline(t *testing.T) {
	for _, shards := range []int{1, 2, 63, 64} {
		s := NewShardSet(shards)
		if s.wide != nil {
			t.Fatalf("NewShardSet(%d) spilled to a wide bitset", shards)
		}
		s.Add(shards - 1)
		if s.wide != nil {
			t.Fatalf("Add spilled an inline set at %d shards", shards)
		}
	}
	if s := NewShardSet(65); s.wide == nil {
		t.Fatal("NewShardSet(65) did not allocate the wide bitset")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s := NewShardSet(64)
		s.Add(0)
		s.Add(63)
		_ = s.Contains(17)
	})
	if allocs != 0 {
		t.Fatalf("inline ShardSet allocated %.1f times per use, want 0", allocs)
	}
}

// testShardSetAgainstModel drives one ShardSet shape against a map model
// with randomized Add/Or and checks every query method agrees.
func testShardSetAgainstModel(t *testing.T, shards int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	set := NewShardSet(shards)
	model := map[int]bool{}

	for op := 0; op < 500; op++ {
		if rng.Intn(4) == 0 {
			other := NewShardSet(shards)
			for i := 0; i < 3; i++ {
				s := rng.Intn(shards)
				other.Add(s)
				model[s] = true
			}
			set.Or(other)
		} else {
			s := rng.Intn(shards)
			set.Add(s)
			model[s] = true
		}
	}

	var want []int
	for s := range model {
		want = append(want, s)
	}
	sort.Ints(want)

	if got := set.Count(); got != len(want) {
		t.Fatalf("Count = %d, model has %d", got, len(want))
	}
	if set.Empty() != (len(want) == 0) {
		t.Fatalf("Empty = %v with %d members", set.Empty(), len(want))
	}
	min := -1
	if len(want) > 0 {
		min = want[0]
	}
	if got := set.Min(); got != min {
		t.Fatalf("Min = %d, want %d", got, min)
	}
	for s := 0; s < shards; s++ {
		if set.Contains(s) != model[s] {
			t.Fatalf("Contains(%d) = %v, model says %v", s, set.Contains(s), model[s])
		}
	}
	var visited []int
	set.ForEach(func(s int) { visited = append(visited, s) })
	if len(visited) != len(want) {
		t.Fatalf("ForEach visited %d shards, want %d", len(visited), len(want))
	}
	for i := range visited {
		if visited[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want ascending %v", visited, want)
		}
		if i > 0 && visited[i] <= visited[i-1] {
			t.Fatalf("ForEach not strictly ascending at %d: %v", i, visited)
		}
	}
}

// TestShardSetModelInline exercises the one-word fast path.
func TestShardSetModelInline(t *testing.T) {
	for _, shards := range []int{1, 5, 64} {
		testShardSetAgainstModel(t, shards, int64(shards)*31+7)
	}
}

// TestShardSetModelWide exercises the spilled bitset past the old
// 64-shard ceiling, including word-boundary counts.
func TestShardSetModelWide(t *testing.T) {
	for _, shards := range []int{65, 128, 130, 257} {
		testShardSetAgainstModel(t, shards, int64(shards)*31+7)
	}
}

// TestShardSetEmpty pins the zero-value queries both shapes must agree on.
func TestShardSetEmpty(t *testing.T) {
	for _, shards := range []int{8, 200} {
		s := NewShardSet(shards)
		if !s.Empty() || s.Count() != 0 || s.Min() != -1 {
			t.Fatalf("%d shards: empty set reports Empty=%v Count=%d Min=%d",
				shards, s.Empty(), s.Count(), s.Min())
		}
		s.ForEach(func(int) { t.Fatal("ForEach visited a member of the empty set") })
	}
}
