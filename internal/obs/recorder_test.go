package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistrySnapshotValues(t *testing.T) {
	vals := buildTestRegistry().Snapshot()
	byKey := make(map[string]SampleValue)
	for _, v := range vals {
		byKey[v.Key()] = v
	}
	if v := byKey[`incll_test_ops_total{op="put"}`]; v.Value != 10 || v.Kind != "counter" {
		t.Fatalf("ops{op=put}: %+v", v)
	}
	if v := byKey["incll_test_lag_epochs"]; v.Value != 2 || v.Kind != "gauge" {
		t.Fatalf("lag: %+v", v)
	}
	// The histogram flattens to scalar derived series in exported units
	// (1e-9 scale: ns recordings → seconds).
	if v := byKey["incll_test_stw_seconds_count"]; v.Value != 100 || v.Kind != "counter" {
		t.Fatalf("stw count: %+v", v)
	}
	if v := byKey["incll_test_stw_seconds_p99"]; v.Kind != "gauge" || v.Value <= 0 || v.Value > 1e-3 {
		t.Fatalf("stw p99: %+v", v)
	}
	if v := byKey["incll_test_stw_seconds_sum"]; v.Value <= 0 || v.Value > 1 {
		t.Fatalf("stw sum: %+v", v)
	}
}

func TestRecorderSnapshotAndRates(t *testing.T) {
	var ops atomic.Int64
	reg := NewRegistry()
	reg.Counter("r_ops_total", "ops", "", ops.Load)
	reg.Gauge("r_depth", "depth", "", func() int64 { return 7 })

	r := NewRecorder(reg.Snapshot, time.Second, 8)
	ops.Store(100)
	r.Take()
	time.Sleep(20 * time.Millisecond)
	ops.Store(300)
	r.Take()

	pts := r.Points()
	if len(pts) != 2 {
		t.Fatalf("points=%d want 2", len(pts))
	}
	hist := r.History()
	if len(hist) != 2 {
		t.Fatalf("history=%d want 2", len(hist))
	}
	if hist[0].Rates != nil {
		t.Fatalf("first point has rates: %v", hist[0].Rates)
	}
	if got := hist[1].Values["r_ops_total"]; got != 300 {
		t.Fatalf("ops value=%v want 300", got)
	}
	if got := hist[1].Values["r_depth"]; got != 7 {
		t.Fatalf("depth value=%v want 7", got)
	}
	dt := pts[1].Time.Sub(pts[0].Time).Seconds()
	want := 200 / dt
	if got := hist[1].Rates["r_ops_total"]; got < want*0.99 || got > want*1.01 {
		t.Fatalf("ops rate=%v want ≈%v", got, want)
	}
	if _, ok := hist[1].Rates["r_depth"]; ok {
		t.Fatal("gauge got a rate")
	}
}

func TestRecorderRingEviction(t *testing.T) {
	var n atomic.Int64
	reg := NewRegistry()
	reg.Counter("r_ticks_total", "ticks", "", n.Load)
	r := NewRecorder(reg.Snapshot, time.Second, 3)
	for i := 1; i <= 10; i++ {
		n.Store(int64(i))
		r.Take()
	}
	pts := r.Points()
	if len(pts) != 3 {
		t.Fatalf("points=%d want 3 (capacity)", len(pts))
	}
	for i, p := range pts {
		if got := p.Values[0].Value; got != float64(8+i) {
			t.Fatalf("point %d value=%v want %d (oldest-first, last 3 kept)", i, got, 8+i)
		}
	}
}

func TestRecorderStartStop(t *testing.T) {
	var n atomic.Int64
	reg := NewRegistry()
	reg.Counter("r_bg_total", "bg", "", n.Load)
	r := NewRecorder(reg.Snapshot, 5*time.Millisecond, 100)
	r.Start()
	r.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for len(r.Points()) < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent
	got := len(r.Points())
	if got < 3 {
		t.Fatalf("background recorder took %d points, want ≥3", got)
	}
	time.Sleep(15 * time.Millisecond)
	if after := len(r.Points()); after != got {
		t.Fatalf("recorder kept ticking after Stop: %d → %d", got, after)
	}
}

func TestRecorderCounterReset(t *testing.T) {
	v := int64(100)
	reg := NewRegistry()
	reg.Counter("r_reset_total", "resettable", "", func() int64 { return v })
	r := NewRecorder(reg.Snapshot, time.Second, 4)
	r.Take()
	v = 10 // a reset (new DB instance behind the same registry closure)
	r.Take()
	hist := r.History()
	if _, ok := hist[1].Rates["r_reset_total"]; ok {
		t.Fatalf("negative counter delta produced a rate: %v", hist[1].Rates)
	}
}

func TestTracerConcurrentRecordDump(t *testing.T) {
	tr := NewTracer(32)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			tr.Record(EvCheckpointCommit, 0, uint64(i), time.Microsecond, 0)
		}
	}()
	for {
		if err := tr.Dump(discardWriter{}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			if evs := tr.Events(); len(evs) != 32 {
				t.Fatalf("got %d events, want 32", len(evs))
			}
			return
		default:
		}
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
