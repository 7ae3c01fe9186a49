package txn

import (
	"testing"

	"incll/internal/shard"
)

// TestKeyHashPinsRouteAndStripe pins shard placement and commit-lock
// stripes, which both derive from shard.KeyHash: recovery re-routes every
// replayed write by the same function, so a changed hash would move keys
// between shards across a restart.
func TestKeyHashPinsRouteAndStripe(t *testing.T) {
	for _, c := range []struct {
		key            string
		route4, route7 int
		stripe         uint16
	}{
		{"", 3, 5, 961},
		{"a", 0, 3, 192},
		{"k", 0, 2, 966},
		{"key/000001", 0, 0, 826},
		{"\x00\x00\x00\x00\x00\x00\x00*", 0, 4, 933},
		{"account-99999", 3, 6, 449},
		{"w01/key/00017/ppppppp", 1, 6, 352},
		{"\xff\xfe\xfd", 2, 1, 972},
		{"the quick brown fox jumps over the lazy dog", 1, 5, 273},
		{"user6284781860667377211", 2, 5, 720},
	} {
		k := []byte(c.key)
		if got := shard.Route(k, 4); got != c.route4 {
			t.Errorf("Route(%q, 4) = %d, want %d", k, got, c.route4)
		}
		if got := shard.Route(k, 7); got != c.route7 {
			t.Errorf("Route(%q, 7) = %d, want %d", k, got, c.route7)
		}
		if got := stripeOf(k); got != c.stripe {
			t.Errorf("stripeOf(%q) = %d, want %d", k, got, c.stripe)
		}
	}
}
