package telemetry

import (
	"reflect"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", Desc{})
	g := r.Gauge("g", Desc{})
	c.Inc()
	c.Add(4)
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
	if v, ok := r.Value("c"); !ok || v != 5 {
		t.Errorf("Value(c) = %d,%v", v, ok)
	}
}

// TestCounterOfReadsThrough: a read-through counter is the slot it was
// registered over, read when asked, and exported as a counter.
func TestCounterOfReadsThrough(t *testing.T) {
	r := NewRegistry()
	slot := int64(2)
	r.CounterOf("one", Desc{}, &slot)
	slot += 10
	if v, ok := r.Value("one"); !ok || v != 12 {
		t.Errorf("Value(one) = %d,%v, want 12", v, ok)
	}
	if kinds := r.ScalarKinds(); !reflect.DeepEqual(kinds, []Kind{KindCounter}) {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]int64{8, 16, 32})
	for _, v := range []int64{1, 8, 9, 16, 33, 1000} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if !reflect.DeepEqual(bounds, []int64{8, 16, 32}) {
		t.Fatalf("bounds = %v", bounds)
	}
	// v <= 8 → bucket 0 (two: 1, 8); 9..16 → bucket 1 (two); 17..32 → bucket
	// 2 (none); overflow catches 33 and 1000.
	if !reflect.DeepEqual(counts, []int64{2, 2, 0, 2}) {
		t.Fatalf("counts = %v", counts)
	}
	if h.Count() != 6 || h.Min() != 1 || h.Max() != 1000 {
		t.Errorf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	if want := float64(1+8+9+16+33+1000) / 6; h.Mean() != want {
		t.Errorf("mean = %v, want %v", h.Mean(), want)
	}
	// Buckets must return copies, not aliases.
	counts[0] = 99
	if _, c2 := h.Buckets(); c2[0] != 2 {
		t.Error("Buckets returned an aliased counts slice")
	}
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(8, 2, 4)
	if !reflect.DeepEqual(got, []int64{8, 16, 32, 64}) {
		t.Fatalf("ExpBounds = %v", got)
	}
}

func TestDuplicateProbePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x", Desc{})
	r.Gauge("x", Desc{})
}

func TestSnapshotAlignsWithScalarNames(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count", Desc{})
	r.Histogram("h", Desc{}, []int64{1}) // excluded from scalars
	g := r.Gauge("b.level", Desc{})
	calls := 0
	r.GaugeFunc("c.fn", Desc{}, func() int64 { calls++; return 42 })
	c.Add(3)
	g.Set(-1)

	names := r.ScalarNames()
	if !reflect.DeepEqual(names, []string{"a.count", "b.level", "c.fn"}) {
		t.Fatalf("ScalarNames = %v", names)
	}
	kinds := r.ScalarKinds()
	if kinds[0] != KindCounter || kinds[1] != KindGauge || kinds[2] != KindGaugeFunc {
		t.Fatalf("ScalarKinds = %v", kinds)
	}
	if calls != 0 {
		t.Fatal("GaugeFunc invoked before any snapshot")
	}
	snap := r.Snapshot()
	if !reflect.DeepEqual(snap, []int64{3, -1, 42}) {
		t.Fatalf("Snapshot = %v", snap)
	}
	if calls != 1 {
		t.Fatalf("GaugeFunc invoked %d times by one snapshot", calls)
	}
}

func TestEpochSampler(t *testing.T) {
	tel := New(100)
	c := tel.Reg.Counter("c", Desc{})
	for cycle := int64(1); cycle <= 250; cycle++ {
		c.Inc()
		tel.MaybeSample(cycle)
	}
	s := tel.Samples()
	if len(s) != 2 {
		t.Fatalf("%d samples, want 2 (cycles 100, 200)", len(s))
	}
	if s[0].Cycle != 100 || s[0].Values[0] != 100 {
		t.Errorf("sample 0 = %+v", s[0])
	}
	if s[1].Cycle != 200 || s[1].Values[0] != 200 {
		t.Errorf("sample 1 = %+v", s[1])
	}

	// Flush captures the partial epoch; flushing again at the same cycle or
	// re-sampling an already-sampled boundary is a no-op.
	tel.Flush(250)
	tel.Flush(250)
	tel.MaybeSample(200)
	if s = tel.Samples(); len(s) != 3 || s[2].Cycle != 250 || s[2].Values[0] != 250 {
		t.Fatalf("after flush: %d samples, last %+v", len(s), s[len(s)-1])
	}
	if tel.LastCycle() != 250 {
		t.Errorf("LastCycle = %d", tel.LastCycle())
	}
}

func TestNewRejectsNonPositiveEpoch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}
