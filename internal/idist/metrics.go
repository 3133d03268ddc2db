package idist

import (
	"time"

	"mmdr/internal/metrics"
)

// Operation names under which the index records into an attached
// metrics.Registry. Shared with the root package's exposition and the bench
// JSON emitters, so dashboards see one stable vocabulary.
const (
	opKNN         = "knn"
	opKNNApprox   = "knn_approx"
	opKNNQuant    = "knn_quantized"
	opRange       = "range"
	opInsert      = "insert"
	opDelete      = "delete"
	opBatchKNN    = "batch_knn"
	opBatchRange  = "batch_range"
	opBatchKNNQnt = "batch_knn_quantized"

	gaugePoints     = "index_points"
	gaugePartitions = "index_partitions"
)

// opSet caches the resolved instrument pointers so the hot path never
// touches the registry's name map. A nil *opSet (the default) keeps every
// query on the uninstrumented fast path: one nil check, nothing else.
type opSet struct {
	reg           *metrics.Registry
	knn           *metrics.Op
	approx        *metrics.Op
	quantKNN      *metrics.Op
	rng           *metrics.Op
	ins           *metrics.Op
	del           *metrics.Op
	batchKNN      *metrics.Op
	batchRange    *metrics.Op
	batchQuantKNN *metrics.Op
	points        *metrics.Gauge
	partitions    *metrics.Gauge
}

func newOpSet(reg *metrics.Registry) *opSet {
	return &opSet{
		reg:           reg,
		knn:           reg.Op(opKNN),
		approx:        reg.Op(opKNNApprox),
		quantKNN:      reg.Op(opKNNQuant),
		rng:           reg.Op(opRange),
		ins:           reg.Op(opInsert),
		del:           reg.Op(opDelete),
		batchKNN:      reg.Op(opBatchKNN),
		batchRange:    reg.Op(opBatchRange),
		batchQuantKNN: reg.Op(opBatchKNNQnt),
		points:        reg.Gauge(gaugePoints),
		partitions:    reg.Gauge(gaugePartitions),
	}
}

// SetMetrics attaches a runtime-metrics registry: every subsequent query,
// insert and delete records its latency, and the structural gauges are
// seeded from the current index state. Passing nil detaches (queries return
// to the uninstrumented path). Attachment is not synchronized with running
// queries — attach before serving, like the counter Sink.
func (idx *Index) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		idx.ops = nil
		return
	}
	ops := newOpSet(reg)
	ops.points.Set(int64(idx.tree.Len()))
	ops.partitions.Set(int64(len(idx.parts)))
	idx.ops = ops
}

// Metrics returns the attached registry (nil when detached).
func (idx *Index) Metrics() *metrics.Registry {
	if idx.ops == nil {
		return nil
	}
	return idx.ops.reg
}

// captureSlowKNN runs off the hot path, claimed at most once per rate-limit
// gap: re-run the query through the tracing path and file the structured
// explain in the slow-query log. The re-run does not record, so capture
// cannot recurse, and charges no Sink, so the cost counter sees the query
// once however slow it was.
func (idx *Index) captureSlowKNN(q []float64, k int, d time.Duration) {
	tr := &QueryTrace{K: k}
	sc := idx.getScratch()
	sc.counter = nil
	idx.knnInto(sc, q, k, 0, tr)
	idx.putScratch(sc)
	qc := make([]float64, len(q))
	copy(qc, q)
	idx.ops.reg.Slow().Add(metrics.SlowQuery{
		Op:          opKNN,
		At:          time.Now(),
		LatencyUS:   float64(d) / 1e3,
		ThresholdUS: float64(idx.ops.knn.SlowThreshold()) / 1e3,
		K:           k,
		Query:       qc,
		Trace:       tr,
	})
}
