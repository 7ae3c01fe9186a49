package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incll/internal/testutil"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, perWorker = 16, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(w, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Fatalf("Load()=%d want %d", got, workers*perWorker)
	}
	c.Add(-3, 5) // negative worker index must not panic
	if got := c.Load(); got != workers*perWorker+5 {
		t.Fatalf("Load()=%d want %d", got, workers*perWorker+5)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 10; i++ {
		tr.Record(EvCheckpointCommit, i, uint64(i), time.Duration(i), int64(i))
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, e := range evs {
		want := uint64(7 + i) // oldest surviving is seq 7
		if e.Seq != want || e.Epoch != want {
			t.Fatalf("event %d: seq=%d epoch=%d want %d", i, e.Seq, e.Epoch, want)
		}
	}
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "checkpoint_commit"); n != 4 {
		t.Fatalf("dump has %d events, want 4:\n%s", n, buf.String())
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(EvCoordRecord, 0, 1, 0, 0) // must not panic
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer returned events: %v", evs)
	}
	if err := tr.Dump(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Record(EvJournalRelease, w, uint64(i), 0, 0)
			}
		}(w)
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != 64 {
		t.Fatalf("got %d events, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs %d, %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EvCheckpointPrepare, EvCheckpointCommit, EvCoordRecord,
		EvJournalRelease, EvRecoveryReplay, EvTxnReplay,
		EvSnapshotAnchor, EvReplicaApply,
	}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if strings.HasPrefix(s, "event(") || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
}

func buildTestRegistry() *Registry {
	r := NewRegistry()
	var ops Counter
	ops.Add(0, 10)
	r.Counter("incll_test_ops_total", "Operations applied.", Labels("op", "put"), ops.Load)
	r.Counter("incll_test_ops_total", "Operations applied.", Labels("op", "get"), func() int64 { return 3 })
	var lag atomic.Int64
	lag.Store(2)
	r.Gauge("incll_test_lag_epochs", "Replica lag in epochs.", "", lag.Load)
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Record(int64(i) * 1_000)
	}
	r.Histogram("incll_test_stw_seconds", "Stop-the-world duration.", "", h, 1e-9)
	return r
}

func TestRegistryPrometheusOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTestRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := testutil.CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("lint failed: %v\n%s", err, out)
	}
	exp, err := testutil.ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := exp.Value("incll_test_ops_total", "op", "put"); err != nil || v != 10 {
		t.Fatalf("ops{op=put}=%v err=%v", v, err)
	}
	if v, err := exp.Value("incll_test_lag_epochs"); err != nil || v != 2 {
		t.Fatalf("lag=%v err=%v", v, err)
	}
	if v, err := exp.Value("incll_test_stw_seconds_count"); err != nil || v != 100 {
		t.Fatalf("stw count=%v err=%v", v, err)
	}
	if v, err := exp.Value("incll_test_stw_seconds_bucket", "le", "+Inf"); err != nil || v != 100 {
		t.Fatalf("stw +Inf=%v err=%v", v, err)
	}
	if exp.Types["incll_test_stw_seconds"] != "histogram" {
		t.Fatalf("TYPE map: %v", exp.Types)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "h", "", func() int64 { return 0 })
	mustPanic(t, "duplicate series", func() {
		r.Counter("x_total", "h", "", func() int64 { return 0 })
	})
	mustPanic(t, "kind clash", func() {
		r.Gauge("x_total", "h", Labels("a", "b"), func() int64 { return 0 })
	})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}

func TestLabelsHelper(t *testing.T) {
	if got := Labels("shard", "0", "op", `p"q`); got != `op="p\"q",shard="0"` {
		t.Fatalf("Labels: %q", got)
	}
	if got := Labels(); got != "" {
		t.Fatalf("Labels(): %q", got)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		w := int(time.Now().UnixNano()) & 7
		for pb.Next() {
			c.Add(w, 1)
		}
	})
	_ = fmt.Sprint(c.Load())
}
