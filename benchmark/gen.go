package main

import (
	"math"
	"math/bits"
)

// The benchmark carries its own generator (and never imports
// internal/ycsb or internal/harness) so a later change to those packages
// cannot move its numbers.

// mix64 is splitmix64's finalizer: a fixed bijective scramble.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rng is splitmix64: tiny, seedable, and identical on every Go version.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng { return rng{s: mix64(seed ^ 0x6a09e667f3bcc909)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^theta, by Gray et
// al.'s constant-time method (the one YCSB uses). Read-only after newZipf,
// so clients share one.
type zipf struct {
	n                        uint64
	theta, alpha, zetan, eta float64
	half                     float64 // 1 + 0.5^theta
}

const zipfTheta = 0.99

func zeta(n uint64, theta float64) float64 {
	var z float64
	for i := uint64(1); i <= n; i++ {
		z += 1 / math.Pow(float64(i), theta)
	}
	return z
}

func newZipf(n uint64, theta float64) *zipf {
	z := &zipf{n: n, alpha: 1 / (1 - theta), zetan: zeta(n, theta)}
	z.half = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.half/z.zetan)
	return z
}

func (z *zipf) rank(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// scrambled spreads the popular ranks over the keyspace.
func (z *zipf) scrambled(r *rng) uint64 { return mix64(z.rank(r)) % z.n }

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opInsert
	opDelete
	opScan
	opTxn
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "insert", "delete", "scan", "txn"}

// op is one generated operation. Keys are dense indexes, rendered as
// 8-byte big-endian strings at execution so index order is key order.
type op struct {
	kind opKind
	idx  uint64    // key index (get/put/insert/delete), scan start
	val  uint64    // value or value version (writes), scan length, txn ordinal
	acct [4]uint32 // txn: debit acct[0..1], credit acct[2..3]
	amt  uint32
}

// value is the uint64 a write stores: below 2^40 (so it stays inline in the
// leaf, allocation-free) and never 0 (0 is the model's "absent").
func value(idx, seq uint64) uint64 { return mix64(idx*0x9e3779b97f4a7c15+seq)&(1<<40-1) | 1 }

// generator produces one client's op stream. A client writes only the keys
// it owns (index mod clients == client) and reads any key, so per-client
// models give the exact final state without cross-client ordering.
type generator struct {
	w        *workload
	r        rng
	client   uint64
	clients  uint64
	keyZipf  *zipf
	lenZipf  *zipf
	ops      uint64 // ycsb_e: ops generated (insert cadence)
	seq      uint64 // writes generated (value/version source)
	inserted uint64 // ycsb_e: own keys appended above the keyspace
	txns     uint64 // txn_transfer: ordinals handed out

	// churn_bytes: own key slots currently present / absent.
	live, dead []uint32

	// writesOnly turns every op into the workload's write: the
	// un-checkpointed tail of a crash cycle.
	writesOnly bool
}

func newGenerator(w *workload, seed uint64, client, clients int, keyZipf, lenZipf *zipf) *generator {
	g := &generator{
		w:       w,
		r:       newRNG(seed*1000003 + uint64(client)*7919 + 1),
		client:  uint64(client),
		clients: uint64(clients),
		keyZipf: keyZipf,
		lenZipf: lenZipf,
	}
	if w.kind == kindChurn {
		slots := w.keyspace() / g.clients
		for j := uint64(0); j < slots; j++ {
			if w.preloaded(j*g.clients + g.client) {
				g.live = append(g.live, uint32(j))
			} else {
				g.dead = append(g.dead, uint32(j))
			}
		}
	}
	return g
}

// clone copies the mutable generator state, for the rollback a crash cycle
// needs.
func (g *generator) clone() *generator {
	c := *g
	c.live = append([]uint32(nil), g.live...)
	c.dead = append([]uint32(nil), g.dead...)
	return &c
}

// own maps any index in [0, n) to a nearby index this client owns.
func (g *generator) own(idx, n uint64) uint64 {
	idx = idx - idx%g.clients + g.client
	if idx >= n {
		idx -= g.clients
	}
	return idx
}

func (g *generator) put(o *op, idx uint64) {
	g.seq++
	o.kind, o.idx, o.val = opPut, idx, value(idx, g.seq)
}

// distinctAccount draws a uniform account not already in taken.
func (g *generator) distinctAccount(taken []uint32) uint32 {
	for {
		a := uint32(g.r.intn(g.w.keys))
		dup := false
		for _, b := range taken {
			dup = dup || a == b
		}
		if !dup {
			return a
		}
	}
}

func (g *generator) fill(ops []op) {
	for i := range ops {
		g.next(&ops[i])
	}
}

func (g *generator) next(o *op) {
	w := g.w
	switch w.kind {
	case kindA: // 50 % get / 50 % update, uniform
		idx := g.r.intn(w.keys)
		if g.writesOnly || g.r.next()&1 == 0 {
			g.put(o, g.own(idx, w.keys))
		} else {
			o.kind, o.idx = opGet, idx
		}
	case kindC: // 100 % get, zipfian
		idx := g.keyZipf.scrambled(&g.r)
		if g.writesOnly {
			g.put(o, g.own(idx, w.keys))
		} else {
			o.kind, o.idx = opGet, idx
		}
	case kindE: // 19 scans, then 1 insert above the keyspace
		// A fixed cadence, not a 5 % coin: the inserts are the only writes,
		// so with it every write-side count is the same for every seed.
		g.ops++
		if g.writesOnly || g.ops%20 == 0 {
			g.seq++
			idx := w.keys + g.inserted*g.clients + g.client
			g.inserted++
			o.kind, o.idx, o.val = opInsert, idx, value(idx, g.seq)
		} else {
			o.kind, o.idx, o.val = opScan, g.keyZipf.scrambled(&g.r), 1+g.lenZipf.rank(&g.r)
		}
	case kindChurn: // 25 % each: insert, delete, overwrite, get
		k := g.r.intn(4)
		if g.writesOnly {
			k = g.r.intn(3)
		}
		switch {
		case k == 0 && len(g.dead) > 0:
			i := g.r.intn(uint64(len(g.dead)))
			j := g.dead[i]
			g.dead[i] = g.dead[len(g.dead)-1]
			g.dead = g.dead[:len(g.dead)-1]
			g.live = append(g.live, j)
			g.seq++
			o.kind, o.idx, o.val = opInsert, uint64(j)*g.clients+g.client, g.seq
		case k == 1 && len(g.live) > 0:
			i := g.r.intn(uint64(len(g.live)))
			j := g.live[i]
			g.live[i] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
			g.dead = append(g.dead, j)
			o.kind, o.idx = opDelete, uint64(j)*g.clients+g.client
		case k == 2 && len(g.live) > 0:
			j := g.live[g.r.intn(uint64(len(g.live)))]
			g.seq++
			o.kind, o.idx, o.val = opPut, uint64(j)*g.clients+g.client, g.seq
		default:
			o.kind, o.idx = opGet, g.r.intn(w.keyspace())
		}
	case kindTxn: // 4-key transfer, uniform accounts
		o.kind = opTxn
		for i := range o.acct {
			o.acct[i] = g.distinctAccount(o.acct[:i])
		}
		o.amt = uint32(1 + g.r.intn(100))
		g.txns++
		o.val = g.txns
	}
}
