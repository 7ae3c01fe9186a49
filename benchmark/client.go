package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"incll"
)

// model is one client's exact expectation of the keys it owns. Writers own
// disjoint keys, so the union of the client models is the store's state,
// whatever the interleaving. Verification never runs inside a timed
// window; any mismatch is a failed operation.
type model struct {
	client  uint64
	clients uint64

	// vals[slot] is the value (or, for byte workloads, the value version)
	// of own key slot*clients+client; 0 means absent.
	vals []uint64
	live uint64

	// txn_transfer: with one client every balance is known exactly; with
	// two, only conservation and the per-client ordinal are.
	bal     []uint64
	counter uint64
}

func newModel(w *workload, client, clients int) *model {
	m := &model{client: uint64(client), clients: uint64(clients)}
	if w.kind == kindTxn {
		if clients == 1 {
			m.bal = make([]uint64, w.keys)
			for i := range m.bal {
				m.bal[i] = initialBalance
			}
		}
		return m
	}
	slots := (w.keyspace() + m.clients - 1) / m.clients
	m.vals = make([]uint64, slots)
	for j := range m.vals {
		if idx := uint64(j)*m.clients + m.client; w.preloaded(idx) {
			m.vals[j] = w.preloadValue(idx)
			m.live++
		}
	}
	return m
}

func (m *model) clone() *model {
	c := *m
	c.vals = append([]uint64(nil), m.vals...)
	c.bal = append([]uint64(nil), m.bal...)
	return &c
}

func (m *model) owns(idx uint64) bool { return idx%m.clients == m.client }

func (m *model) get(idx uint64) uint64 {
	if j := idx / m.clients; j < uint64(len(m.vals)) {
		return m.vals[j]
	}
	return 0
}

func (m *model) set(idx, v uint64) {
	j := idx / m.clients
	for j >= uint64(len(m.vals)) {
		m.vals = append(m.vals, 0)
	}
	switch old := m.vals[j]; {
	case old == 0 && v != 0:
		m.live++
	case old != 0 && v == 0:
		m.live--
	}
	m.vals[j] = v
}

func putKey(dst []byte, idx uint64) { binary.BigEndian.PutUint64(dst, idx) }

// fillValue renders the byte value version ver of key idx.
func fillValue(dst []byte, idx, ver uint64) {
	x := mix64(idx*0x9e3779b97f4a7c15 ^ ver)
	for i := 0; i+8 <= len(dst); i += 8 {
		x = mix64(x + 0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

type scanned struct{ idx, val uint64 }

// client drives one handle with one generator and checks every reply it
// can against its model.
type client struct {
	w  *workload
	id int
	h  handle
	g  *generator
	m  *model

	verify bool // false only on the gen rung, whose handle stores nothing

	// sampleEvery times one op in N (0: none, 1: all); tr additionally
	// records a span per timed op (the traced pass).
	sampleEvery uint64
	opn         uint64
	hists       [numOpKinds]hist
	tr          *tracer

	ops   []op
	key   [8]byte
	tkeys [5][8]byte
	vbuf  []byte
	rbuf  []byte
	want  []byte
	scan  []scanned

	attempted, failed uint64
	firstFailure      string
	conflicts         uint64
	scanKeys          uint64
	commitTime        time.Duration // traced pass only: time inside Commit
}

const blockOps = 64 // generated, then executed whole: generator state must match what ran

func newClient(w *workload, id int, h handle, g *generator, m *model) *client {
	return &client{
		w: w, id: id, h: h, g: g, m: m, verify: true,
		ops:  make([]op, blockOps),
		vbuf: make([]byte, w.valueBytes),
		want: make([]byte, w.valueBytes),
		scan: make([]scanned, 0, 64),
	}
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (c *client) record(k opKind, t0 time.Time) {
	d := time.Since(t0)
	c.hists[k].add(d)
	if c.tr != nil {
		c.tr.op(opNames[k], t0, d)
	}
}

// runBlock generates and executes n ≤ blockOps operations.
func (c *client) runBlock(n int) {
	ops := c.ops[:n]
	c.g.fill(ops)
	for i := range ops {
		c.exec(&ops[i])
	}
}

func (c *client) exec(o *op) {
	c.attempted++
	timed := c.sampleEvery != 0 && c.opn%c.sampleEvery == 0
	c.opn++
	var t0 time.Time
	key := c.key[:]
	putKey(key, o.idx)
	bytesVal := c.w.valueBytes > 0

	switch o.kind {
	case opGet:
		if bytesVal {
			if timed {
				t0 = time.Now()
			}
			got, ok := c.h.AppendGet(c.rbuf[:0], key)
			if timed {
				c.record(opGet, t0)
			}
			c.rbuf = got
			if c.verify && c.m.owns(o.idx) {
				c.checkBytes(o.idx, got, ok)
			}
			return
		}
		if timed {
			t0 = time.Now()
		}
		v, ok := c.h.Get(key)
		if timed {
			c.record(opGet, t0)
		}
		if c.verify && c.m.owns(o.idx) {
			if want := c.m.get(o.idx); ok != (want != 0) || v != want {
				c.fail("get %d = (%d, %v), want %d", o.idx, v, ok, want)
			}
		}

	case opPut, opInsert:
		var inserted bool
		if bytesVal {
			fillValue(c.vbuf, o.idx, o.val)
			if timed {
				t0 = time.Now()
			}
			inserted = c.h.PutBytes(key, c.vbuf)
		} else {
			if timed {
				t0 = time.Now()
			}
			inserted = c.h.Put(key, o.val)
		}
		if timed {
			c.record(o.kind, t0)
		}
		if c.verify && inserted != (c.m.get(o.idx) == 0) {
			c.fail("%s %d reported inserted=%v", opNames[o.kind], o.idx, inserted)
		}
		c.m.set(o.idx, o.val)

	case opDelete:
		if timed {
			t0 = time.Now()
		}
		removed := c.h.Delete(key)
		if timed {
			c.record(opDelete, t0)
		}
		if c.verify && removed != (c.m.get(o.idx) != 0) {
			c.fail("delete %d reported removed=%v", o.idx, removed)
		}
		c.m.set(o.idx, 0)

	case opScan:
		c.scan = c.scan[:0]
		if timed {
			t0 = time.Now()
		}
		c.h.Scan(key, int(o.val), func(k []byte, v uint64) bool {
			c.scan = append(c.scan, scanned{binary.BigEndian.Uint64(k), v})
			return true
		})
		if timed {
			c.record(opScan, t0)
		}
		c.scanKeys += uint64(len(c.scan))
		if c.verify {
			c.checkScan(o)
		}

	case opTxn:
		c.transfer(o, timed)
	}
}

func (c *client) checkBytes(idx uint64, got []byte, ok bool) {
	ver := c.m.get(idx)
	if ok != (ver != 0) {
		c.fail("get %d found=%v, want version %d", idx, ok, ver)
		return
	}
	if ok {
		fillValue(c.want, idx, ver)
		if !bytes.Equal(got, c.want) {
			c.fail("get %d returned other bytes than version %d", idx, ver)
		}
	}
}

// checkScan: preloaded keys are dense and never deleted, so a scan must
// return exactly start, start+1, … below the preload boundary, then
// inserted keys in ascending order; own keys carry the model's value.
func (c *client) checkScan(o *op) {
	want := o.val
	for i, s := range c.scan {
		switch {
		case o.idx+uint64(i) < c.w.keys && s.idx != o.idx+uint64(i):
			c.fail("scan from %d: key %d at position %d", o.idx, s.idx, i)
			return
		case i > 0 && s.idx <= c.scan[i-1].idx:
			c.fail("scan from %d: keys out of order at position %d", o.idx, i)
			return
		case c.m.owns(s.idx) && s.val != c.m.get(s.idx), s.val == 0:
			c.fail("scan from %d: key %d = %d, want %d", o.idx, s.idx, s.val, c.m.get(s.idx))
			return
		}
	}
	if uint64(len(c.scan)) != want && o.idx+want <= c.w.keys {
		c.fail("scan from %d returned %d keys, want %d", o.idx, len(c.scan), want)
	}
}

// transfer moves amt out of two accounts and into two others and stamps the
// client's ordinal, as one transaction, retrying on conflict. One op is one
// committed transaction.
func (c *client) transfer(o *op, timed bool) {
	for i, a := range o.acct {
		putKey(c.tkeys[i][:], uint64(a))
	}
	putKey(c.tkeys[4][:], c.w.counterKey(c.id))
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var bal [4]uint64
	var amt uint64
	for {
		t := c.h.Begin()
		found := true
		for i := range bal {
			var ok bool
			bal[i], ok = t.Get(c.tkeys[i][:])
			found = found && ok
		}
		amt = uint64(o.amt)
		if bal[0] < amt || bal[1] < amt {
			amt = 0
		}
		t.Put(c.tkeys[0][:], bal[0]-amt)
		t.Put(c.tkeys[1][:], bal[1]-amt)
		t.Put(c.tkeys[2][:], bal[2]+amt)
		t.Put(c.tkeys[3][:], bal[3]+amt)
		t.Put(c.tkeys[4][:], o.val)
		var tc time.Time
		if c.tr != nil {
			tc = time.Now()
		}
		err := t.Commit()
		if c.tr != nil {
			c.commitTime += time.Since(tc)
		}
		if errors.Is(err, incll.ErrConflict) {
			c.conflicts++
			continue
		}
		if err != nil || (!found && c.verify) {
			c.fail("transfer %d: found=%v err=%v", o.val, found, err)
		}
		break
	}
	if timed {
		c.record(opTxn, t0)
	}
	c.m.counter = o.val
	if c.m.bal == nil {
		return
	}
	for i, a := range o.acct {
		if c.verify && bal[i] != c.m.bal[a] {
			c.fail("transfer %d read account %d = %d, want %d", o.val, a, bal[i], c.m.bal[a])
		}
	}
	c.m.bal[o.acct[0]] -= amt
	c.m.bal[o.acct[1]] -= amt
	c.m.bal[o.acct[2]] += amt
	c.m.bal[o.acct[3]] += amt
}

// preload stores the workload's initial keys through h, in a fixed
// full-cycle stride order (so the tree is built by scattered, not
// ascending, inserts). The data set is part of the workload, not of the
// seed: every seed starts from the same tree, so counts differ between
// seeds only by what the ops do. One goroutine: concurrent preloading
// would make the tree's shape, and with it every count, depend on
// scheduling.
func preload(w *workload, h handle) {
	n := w.keyspace()
	stride := uint64(float64(n)*0.6180339887) | 1
	for gcd(stride, n) != 1 {
		stride += 2
	}
	var key [8]byte
	val := make([]byte, w.valueBytes)
	for i := uint64(0); i < n; i++ {
		idx := i * stride % n
		if !w.preloaded(idx) {
			continue
		}
		putKey(key[:], idx)
		if w.valueBytes > 0 {
			fillValue(val, idx, w.preloadValue(idx))
			h.PutBytes(key[:], val)
		} else {
			h.Put(key[:], w.preloadValue(idx))
		}
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// verifyAll compares the whole store, by one ordered scan, with the union
// of the client models. It returns the number of mismatches and the first.
func verifyAll(w *workload, h handle, models []*model) (failed uint64, first string) {
	fail := func(format string, args ...any) {
		failed++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	clients := uint64(len(models))
	var count, sum uint64
	prev, started := uint64(0), false
	order := func(idx uint64) {
		if started && idx <= prev {
			fail("full scan: key %d after %d", idx, prev)
		}
		prev, started = idx, true
		count++
	}

	switch {
	case w.kind == kindTxn:
		counters := make([]uint64, clients)
		h.Scan(nil, -1, func(k []byte, v uint64) bool {
			idx := binary.BigEndian.Uint64(k)
			order(idx)
			switch {
			case idx >= w.keys && idx < w.keys+clients:
				counters[idx-w.keys] = v
			case idx >= w.keys:
				fail("full scan: unexpected key %d", idx)
			default:
				sum += v
				if b := models[0].bal; b != nil && v != b[idx] {
					fail("account %d = %d, want %d", idx, v, b[idx])
				}
			}
			return true
		})
		for i, m := range models {
			if counters[i] != m.counter {
				fail("client %d ordinal = %d, want last acknowledged %d", i, counters[i], m.counter)
			}
		}
		if sum != w.keys*initialBalance {
			fail("total balance %d, want %d", sum, w.keys*initialBalance)
		}

	case w.valueBytes > 0:
		want := make([]byte, w.valueBytes)
		h.ScanBytes(nil, -1, func(k, v []byte) bool {
			idx := binary.BigEndian.Uint64(k)
			order(idx)
			ver := models[idx%clients].get(idx)
			fillValue(want, idx, ver)
			if ver == 0 || !bytes.Equal(v, want) {
				fail("key %d does not hold version %d", idx, ver)
			}
			return true
		})

	default:
		h.Scan(nil, -1, func(k []byte, v uint64) bool {
			idx := binary.BigEndian.Uint64(k)
			order(idx)
			if want := models[idx%clients].get(idx); want == 0 || v != want {
				fail("key %d = %d, want %d", idx, v, want)
			}
			return true
		})
	}
	if want := expectedKeys(w, models); count != uint64(want) {
		fail("full scan: %d keys, want %d", count, want)
	}
	return failed, first
}

// expectedKeys is the number of keys the models say the store holds.
func expectedKeys(w *workload, models []*model) int {
	n := uint64(0)
	for _, m := range models {
		n += m.live
		if w.kind == kindTxn && m.counter != 0 {
			n++
		}
	}
	if w.kind == kindTxn {
		n += w.keys
	}
	return int(n)
}
