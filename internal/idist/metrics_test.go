package idist

import (
	"runtime/debug"
	"testing"
	"time"

	"mmdr/internal/datagen"
	"mmdr/internal/iostat"
	"mmdr/internal/metrics"
)

func TestMetricsCounts(t *testing.T) {
	ds, red := testSetup(t, 900, 12, 3, 17)
	reg := metrics.NewRegistry()
	idx, err := Build(ds, red, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Point(5)

	idx.KNN(q, 10)
	idx.KNN(q, 10)
	idx.KNNApprox(q, 10, 2)
	idx.Range(q, 0.4)
	queries := [][]float64{q, q, q, q, q}
	idx.BatchKNN(queries, 5, 2)
	idx.BatchRange(queries, 0.3, 2)
	if _, err := idx.Insert(append([]float64(nil), q...)); err != nil {
		t.Fatal(err)
	}
	if !idx.Delete(3) {
		t.Fatal("Delete(3) reported not present")
	}

	for _, tc := range []struct {
		op   string
		want int64
	}{
		{opKNN, 2 + 5}, // singles + per-query batch records
		{opKNNApprox, 1},
		{opRange, 1 + 5},
		{opBatchKNN, 1},
		{opBatchRange, 1},
		{opInsert, 1},
		{opDelete, 1},
	} {
		if got := reg.Op(tc.op).Count(); got != tc.want {
			t.Errorf("op %q count = %d, want %d", tc.op, got, tc.want)
		}
	}
	// Build seeded the gauges; insert and delete moved the point count.
	if got := reg.Gauge(gaugePoints).Value(); got != int64(ds.N-1) {
		t.Errorf("points gauge = %d, want %d", got, ds.N-1)
	}
	if got := reg.Gauge(gaugePartitions).Value(); got < 1 {
		t.Errorf("partitions gauge = %d, want >= 1", got)
	}

	idx.SetMetrics(nil)
	idx.KNN(q, 10)
	if got := reg.Op(opKNN).Count(); got != 7 {
		t.Errorf("detached index still recorded: count = %d, want 7", got)
	}
}

// TestSlowQueryCapture pins the tail-capture contract: a query crossing the
// slow threshold lands in the registry's slow log carrying the structured
// KNNTrace explain for the re-run query.
func TestSlowQueryCapture(t *testing.T) {
	ds, red := testSetup(t, 900, 12, 3, 17)
	reg := metrics.NewRegistry()
	idx, err := Build(ds, red, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Artificially slow policy: every query is over threshold and the zero
	// gap admits every capture.
	reg.Op(opKNN).SetSlowPolicy(time.Nanosecond, 0)

	q := ds.Point(11)
	idx.KNN(q, 10)
	if got := reg.Slow().Total(); got != 1 {
		t.Fatalf("slow captures = %d, want 1", got)
	}
	sq := reg.Slow().Queries()[0]
	if sq.Op != opKNN || sq.K != 10 {
		t.Errorf("capture op/k = %q/%d, want knn/10", sq.Op, sq.K)
	}
	if sq.LatencyUS <= 0 {
		t.Errorf("capture latency = %v, want > 0", sq.LatencyUS)
	}
	if len(sq.Query) != ds.Dim {
		t.Fatalf("captured query has %d dims, want %d", len(sq.Query), ds.Dim)
	}
	for i := range q {
		if sq.Query[i] != q[i] {
			t.Fatalf("captured query differs from original at dim %d", i)
		}
	}
	tr, ok := sq.Trace.(*QueryTrace)
	if !ok || tr == nil {
		t.Fatalf("capture trace is %T, want *QueryTrace", sq.Trace)
	}
	if tr.K != 10 || tr.Rounds < 1 || tr.Candidates < 1 || len(tr.Partitions) == 0 {
		t.Errorf("trace not populated: %+v", tr)
	}

	// The batch path captures through the same policy.
	idx.BatchKNN([][]float64{ds.Point(12)}, 5, 1)
	if got := reg.Slow().Total(); got != 2 {
		t.Errorf("slow captures after batch = %d, want 2", got)
	}
}

// TestSlowCaptureChargesNoSink: the slow-query capture re-runs a query for
// its explain, and the re-run must not charge the index's cost counter a
// second time. Two twin indexes answer the same queries; only one has a
// registry, with every query over the slow threshold. Both counters must
// read the same, for solo KNN and for BatchKNN's per-query capture.
func TestSlowCaptureChargesNoSink(t *testing.T) {
	ds, red := testSetup(t, 900, 12, 3, 17)
	var plainCtr, capturedCtr iostat.Counter
	plain, err := Build(ds, red, Options{Counter: &plainCtr})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	captured, err := Build(ds, red, Options{Counter: &capturedCtr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	reg.Op(opKNN).SetSlowPolicy(time.Nanosecond, 0)

	plainCtr.Reset()
	capturedCtr.Reset()
	plain.KNN(ds.Point(11), 10)
	captured.KNN(ds.Point(11), 10)
	if got := reg.Slow().Total(); got != 1 {
		t.Fatalf("slow captures = %d, want 1", got)
	}
	if a, b := plainCtr.Snapshot(), capturedCtr.Snapshot(); a != b {
		t.Fatalf("KNN with capture charged %+v, without %+v", b, a)
	}

	qs := [][]float64{ds.Point(12), ds.Point(13), ds.Point(14)}
	plainCtr.Reset()
	capturedCtr.Reset()
	plain.BatchKNN(qs, 5, 1)
	captured.BatchKNN(qs, 5, 1)
	if got := reg.Slow().Total(); got != 1+int64(len(qs)) {
		t.Fatalf("slow captures after batch = %d, want %d", got, 1+len(qs))
	}
	if a, b := plainCtr.Snapshot(), capturedCtr.Snapshot(); a != b {
		t.Fatalf("BatchKNN with capture charged %+v, without %+v", b, a)
	}
}

// TestKNNAllocBudgetWithMetrics re-pins the KNN allocation budget with a
// registry attached: the record path must add ZERO allocations on top of
// the result slice.
func TestKNNAllocBudgetWithMetrics(t *testing.T) {
	idx, q := withAllocFixture(t)
	reg := metrics.NewRegistry()
	idx.SetMetrics(reg)
	// Disable tail capture so timing jitter cannot route a run through the
	// (allocating, off-budget) capture path mid-measurement.
	reg.Op(opKNN).SetSlowPolicy(0, 0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	idx.KNN(q, 10)
	if n := testing.AllocsPerRun(100, func() { idx.KNN(q, 10) }); n != 1 {
		t.Fatalf("instrumented KNN allocated %.1f objects per query, budget is exactly 1", n)
	}
	if reg.Op(opKNN).Count() == 0 {
		t.Fatal("metrics did not record during the alloc measurement")
	}
}

// BenchmarkKNNMetricsOverhead races the uninstrumented KNN path against the
// same index with a registry attached — the ≤2% overhead claim is the
// delta between the "off" and "on" numbers.
func BenchmarkKNNMetricsOverhead(b *testing.B) {
	idx, ds := benchIndex(b)
	queries := datagen.SampleQueries(ds, 64, 0.02, 101)
	b.Run("off", func(b *testing.B) {
		idx.SetMetrics(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			idx.KNN(queries.Point(i%queries.N), 10)
		}
	})
	b.Run("on", func(b *testing.B) {
		idx.SetMetrics(metrics.NewRegistry())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			idx.KNN(queries.Point(i%queries.N), 10)
		}
		idx.SetMetrics(nil)
	})
}
