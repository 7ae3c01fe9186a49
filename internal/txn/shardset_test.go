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
		_ = s.Min()
	})
	if allocs != 0 {
		t.Fatalf("inline ShardSet allocated %.1f times per use, want 0", allocs)
	}
}

// members lists the set through ForEach, checking that it visits shards
// in strictly ascending order and that Min names the first of them.
func members(t *testing.T, set ShardSet) []int {
	t.Helper()
	var visited []int
	set.ForEach(func(s int) {
		if n := len(visited); n > 0 && s <= visited[n-1] {
			t.Fatalf("ForEach not strictly ascending: %d after %v", s, visited)
		}
		visited = append(visited, s)
	})
	min := -1
	if len(visited) > 0 {
		min = visited[0]
	}
	if got := set.Min(); got != min {
		t.Fatalf("Min = %d, ForEach's first member is %d", got, min)
	}
	return visited
}

// testShardSetAgainstModel drives one ShardSet shape against a map model
// with randomized Adds and checks, after every Add, that ForEach lists
// exactly the model's members in ascending order and Min names the lowest.
func testShardSetAgainstModel(t *testing.T, shards int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	set := NewShardSet(shards)
	model := map[int]bool{}

	for op := 0; op < 500; op++ {
		s := rng.Intn(shards)
		set.Add(s)
		model[s] = true

		want := make([]int, 0, len(model))
		for s := range model {
			want = append(want, s)
		}
		sort.Ints(want)
		got := members(t, set)
		if len(got) != len(want) {
			t.Fatalf("op %d: ForEach visited %v, model has %v", op, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("op %d: ForEach visited %v, model has %v", op, got, want)
			}
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
		if m := members(t, s); len(m) != 0 || s.Min() != -1 {
			t.Fatalf("%d shards: empty set lists %v, Min=%d", shards, m, s.Min())
		}
	}
}
