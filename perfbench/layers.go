package main

import (
	"bytes"
	"math/rand"
	"net/http/httptest"
	"time"

	"mmdr"
	"mmdr/internal/metrics"
	"mmdr/internal/serve"
)

// buildReps is how many index builds idist.build_s and idist.index_mb take
// the median of.
const buildReps = 5

// overheadReps is how many detached/attached pass pairs
// metrics.overhead_share takes the medians of.
const overheadReps = 4

// sweep measures every layer from outside, on fresh instances built from
// the run's inputs, with a span around every call it makes into a layer.
// It runs on every workload, so every traced run reports every per-layer
// metric with the same meaning.
func (b *bench) sweep() error {
	tr, in, sc := b.tr, b.in, b.o.scale
	root := tr.begin("sweep", 0, 0)
	defer tr.end(root)
	nq := sc.probe

	// core
	var m1 *mmdr.Model
	d, err := tr.timed("core.ReduceDataset", root, func() (err error) {
		m1, err = reduce(in.dataset())
		return err
	})
	if err != nil {
		return err
	}
	b.rep["core.reduce_s"] = d.Seconds()
	b.rep["core.avg_dim"] = m1.AvgDim()
	b.rep["core.outlier_share"] = float64(len(m1.Outliers())) / float64(m1.N())
	var snap bytes.Buffer
	if err := m1.Save(&snap); err != nil {
		return err
	}
	// clone returns a model identical to m1 before any write, for each
	// instance that must not share m1's dataset.
	clone := func() (*mmdr.Model, error) { return mmdr.Load(bytes.NewReader(snap.Bytes())) }

	// idist: build time and memory, then per-query work on the layout path.
	var a *mmdr.Index
	var builds, mbs []float64
	for r := 0; r < buildReps; r++ {
		a = nil
		before := liveHeapMB()
		d, err := tr.timed("idist.NewIndex", root, func() (err error) {
			a, err = m1.NewIndex(mmdr.WithParallelism(1))
			return err
		})
		if err != nil {
			return err
		}
		builds = append(builds, d.Seconds())
		mbs = append(mbs, liveHeapMB()-before)
	}
	b.rep["idist.build_s"] = median(builds)
	b.rep["idist.index_mb"] = median(mbs)

	mB, err := clone()
	if err != nil {
		return err
	}
	var ctr mmdr.CostCounter
	counted, err := mB.NewIndex(mmdr.WithParallelism(1), mmdr.WithCostCounter(&ctr))
	if err != nil {
		return err
	}
	ctr.Reset()
	if _, err := b.slices(counted.BatchKNN, "idist.BatchKNN", root); err != nil {
		return err
	}
	c := ctr.Metrics()
	b.rep["idist.page_reads_per_query"] = float64(c.PageReads) / float64(nq)
	b.rep["idist.distance_ops_per_query"] = float64(c.DistanceOps) / float64(nq)

	var rounds, cands, leaves int
	for i := 0; i < nq; i++ {
		_, qt, err := a.KNNTrace(in.query(i), k)
		if err != nil {
			return err
		}
		rounds += qt.Rounds
		cands += qt.Candidates
		leaves += qt.LeavesScanned
	}
	b.rep["idist.rounds_per_query"] = float64(rounds) / float64(nq)
	b.rep["idist.candidates_per_query"] = float64(cands) / float64(nq)
	b.rep["idist.leaves_per_query"] = float64(leaves) / float64(nq)
	b.rep["idist.candidate_yield"] = float64(k*nq) / float64(cands)

	calls := tr.begin("idist.batch_calls", root, 0)
	for pass := 0; pass < 2; pass++ {
		if _, err := b.slices(a.BatchKNN, "idist.BatchKNN", calls); err != nil {
			return err
		}
	}
	tr.end(calls)
	b.rep["idist.batch_call_ms"] = ms(quantile(tr.selfTimes("idist.BatchKNN", calls), 0.5))

	// metrics: the same passes with the registry detached and attached,
	// interleaved; the fastest pass of each side is compared, so host
	// contention during one pass does not read as registry overhead.
	var off, on []float64
	reg := metrics.NewRegistry()
	for r := 0; r < overheadReps; r++ {
		for _, attached := range []bool{false, true} {
			name := "metrics.detached"
			if attached {
				a.SetRuntimeMetrics(reg)
				name = "metrics.attached"
			}
			d, err := b.slices(a.BatchKNN, name, root)
			a.SetRuntimeMetrics(nil)
			if err != nil {
				return err
			}
			if attached {
				on = append(on, d.Seconds())
			} else {
				off = append(off, d.Seconds())
			}
		}
	}
	b.rep["metrics.overhead_share"] = minOf(on)/minOf(off) - 1

	layout, err := b.tileOfOne(a, "idist.layout", root)
	if err != nil {
		return err
	}
	b.rep["idist.layout_us_per_query"] = us(layout)

	if err := b.serveStages(clone, a, root); err != nil {
		return err
	}

	// idist fallback: one Insert drops the layout; the same tile-of-1
	// queries then walk the B+-tree.
	last := in.insertPoint(sc.inserts - 1)
	if _, err := a.Insert(last); err != nil {
		return err
	}
	if _, err := counted.Insert(last); err != nil {
		return err
	}
	fallback, err := b.tileOfOne(a, "idist.fallback", root)
	if err != nil {
		return err
	}
	b.rep["idist.fallback_us_per_query"] = us(fallback)
	ctr.Reset()
	if _, err := counted.BatchKNN(in.queries[:nq*in.dim], k); err != nil {
		return err
	}
	c = ctr.Metrics()
	b.rep["idist.node_accesses_per_query"] = float64(c.NodeAccesses) / float64(nq)
	b.rep["idist.key_compares_per_query"] = float64(c.KeyCompares) / float64(nq)
	counted, mB = nil, nil

	ins, del, err := b.directWrites(a, 5*writeBurst)
	if err != nil {
		return err
	}
	b.rep["idist.insert_us"] = us(quantile(ins, 0.5))
	b.rep["idist.delete_us"] = us(quantile(del, 0.5))
	a, m1 = nil, nil

	return b.quantLayer(clone, root)
}

// slices calls call on every batchSize slice of the queries, each call in
// a span called name under parent, and returns the total call time.
func (b *bench) slices(call func([]float64, int) ([][]mmdr.Neighbor, error), name string, parent int64) (time.Duration, error) {
	var total time.Duration
	for s := 0; s < b.o.scale.probe/batchSize; s++ {
		d, err := b.tr.timed(name, parent, func() error {
			_, err := call(b.in.slice(s), k)
			return err
		})
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// tileOfOne answers every query as a one-query BatchKNN on idx, each in a
// span called name, and returns the median call time.
func (b *bench) tileOfOne(idx *mmdr.Index, name string, parent int64) (time.Duration, error) {
	group := b.tr.begin(name, parent, 0)
	defer b.tr.end(group)
	for i := 0; i < b.o.scale.probe; i++ {
		if _, err := b.tr.timed("idist.BatchKNN", group, func() error {
			_, err := idx.BatchKNN(b.in.query(i), k)
			return err
		}); err != nil {
			return 0, err
		}
	}
	return quantile(b.tr.selfTimes("idist.BatchKNN", group), 0.5), nil
}

// serveStages attributes served latency from outside. It replays the
// serve-read schedule through four entry points in turn — HTTP over
// loopback, Handler().ServeHTTP in-process, Server.KNN, and a tile-of-1
// BatchKNN on the identical model behind direct — and reports each one's
// p50; successive differences are transport, JSON codec,
// admission/coalesce/linger, and kernel.
func (b *bench) serveStages(clone func() (*mmdr.Model, error), direct *mmdr.Index, parent int64) error {
	tr, in := b.tr, b.in
	mS, err := clone()
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	var srv *serve.Server
	before := liveHeapMB()
	d, err := tr.timed("serve.New", parent, func() (err error) {
		srv, err = serve.New(mS, serve.Options{Shards: serveShards, Workers: 1, Metrics: reg})
		return err
	})
	if err != nil {
		return err
	}
	defer srv.Close() //nolint:errcheck — Close of a drained server reports nothing
	b.rep["serve.new_s"] = d.Seconds()
	b.rep["serve.replicas_mb"] = liveHeapMB() - before
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	h, err := newHTTPSender("http://"+addr.String(), serveConns, in)
	if err != nil {
		return err
	}
	defer h.close()
	want, err := direct.BatchKNN(in.queries[:b.o.scale.probe*in.dim], k)
	if err != nil {
		return err
	}
	if err := b.servedGate("served vs direct (sweep)", h, want); err != nil {
		return err
	}

	// The serve-read window's schedule (same seed, same draws), cut to
	// half the window per entry point.
	length := b.window() / 2
	var sched []arrival
	var ni, nd int
	full := schedule(rand.New(rand.NewSource(b.o.seed)), b.o.scale.rate, b.o.seconds, mix{knn: 1}, in.numQueries(), &ni, &nd)
	for _, a := range full {
		if a.at < length {
			sched = append(sched, a)
		}
	}
	handler := srv.Handler()
	entries := []struct {
		name string
		do   func(conn int, a arrival, rid int64) outcome
	}{
		{"serve.http", h.send},
		{"serve.handler", func(_ int, a arrival, _ int64) outcome {
			req := httptest.NewRequest("POST", "/knn", bytes.NewReader(h.knn[a.arg]))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			return outcome{status: rec.Code, body: rec.Body.Bytes()}
		}},
		{"serve.submit", func(_ int, a arrival, _ int64) outcome {
			_, err := srv.KNN(in.query(a.arg), k)
			return outcome{status: 200, err: err}
		}},
		{"serve.kernel", func(_ int, a arrival, _ int64) outcome {
			_, err := direct.BatchKNN(in.query(a.arg), k)
			return outcome{status: 200, err: err}
		}},
	}
	p50 := make(map[string]float64)
	for _, e := range entries {
		group := tr.begin(e.name, parent, 0)
		h.tr, h.parent = tr, group
		do := e.do
		if e.name != "serve.http" {
			do = func(conn int, a arrival, rid int64) outcome {
				id := tr.begin(e.name+".call", group, rid)
				defer tr.end(id)
				return e.do(conn, a, rid)
			}
		}
		samples, _ := openLoop(sched, serveConns, do)
		tr.end(group)
		var lat, late []time.Duration
		for _, s := range samples {
			late = append(late, s.late)
			if b.tally.status(s.outcome) {
				b.tally.succeeded++
				lat = append(lat, s.lat)
			}
		}
		p50[e.name] = ms(quantile(lat, 0.5))
		b.rep[e.name+"_ms"] = p50[e.name]
		if _, ok := b.rep["loadgen.late_p99_ms"]; !ok && e.name == "serve.http" {
			b.rep["loadgen.late_p99_ms"] = ms(quantile(late, 0.99))
		}
	}
	h.tr = nil
	b.rep["serve.transport_ms"] = p50["serve.http"] - p50["serve.handler"]
	b.rep["serve.codec_ms"] = p50["serve.handler"] - p50["serve.submit"]
	b.rep["serve.coalesce_ms"] = p50["serve.submit"] - p50["serve.kernel"]

	counter := func(name string) float64 {
		for _, c := range reg.Snapshot().Counters {
			if c.Name == name {
				return float64(c.Value)
			}
		}
		return 0
	}
	batches := counter("serve:batches")
	b.rep["serve.tile_fill"] = counter("serve:batched_queries") / batches
	b.rep["serve.flush_timer_share"] = counter("serve:flush_timer") / batches
	b.rep["serve.rejected"] = counter("serve:rejected")

	// Writes through the in-process server: Server.Insert and
	// Server.Delete, both through the sequencer's broadcast.
	var writes []time.Duration
	group := tr.begin("serve.writes", parent, 0)
	for i := 0; i < b.o.scale.serveWrites; i++ {
		d, err := tr.timed("serve.Insert", group, func() error {
			_, err := srv.Insert(in.insertPoint(i))
			return err
		})
		if err != nil {
			return err
		}
		writes = append(writes, d)
		d, err = tr.timed("serve.Delete", group, func() error {
			_, err := srv.Delete(in.deletes[i])
			return err
		})
		if err != nil {
			return err
		}
		writes = append(writes, d)
	}
	tr.end(group)
	b.rep["serve.write_ms"] = ms(quantile(writes, 0.5))
	return srv.Close()
}

// quantLayer measures the quantizer: training, code size, and one
// 64-query quantized batch call with its distance work.
func (b *bench) quantLayer(clone func() (*mmdr.Model, error), parent int64) error {
	tr := b.tr
	mQ, err := clone()
	if err != nil {
		return err
	}
	d, err := tr.timed("quant.TrainQuantizer", parent, func() error {
		return mQ.TrainQuantizer(mmdr.QuantizeConfig{Blocks: quantBlocks})
	})
	if err != nil {
		return err
	}
	b.rep["quant.train_s"] = d.Seconds()
	cb := mQ.CodeBytesPerVector()
	b.rep["quant.code_bytes_per_vector"] = float64(cb)
	b.rep["quant.codes_mb"] = float64(cb*mQ.N()) / 1e6

	q, err := mQ.NewIndex(mmdr.WithParallelism(1))
	if err != nil {
		return err
	}
	quantized := func(qs []float64, k int) ([][]mmdr.Neighbor, error) { return q.BatchKNNQuantized(qs, k, quantBudget) }
	calls := tr.begin("quant.batch_calls", parent, 0)
	for pass := 0; pass < 2; pass++ {
		if _, err := b.slices(quantized, "quant.BatchKNNQuantized", calls); err != nil {
			return err
		}
	}
	tr.end(calls)
	b.rep["quant.batch_call_ms"] = ms(quantile(tr.selfTimes("quant.BatchKNNQuantized", calls), 0.5))

	var ctr mmdr.CostCounter
	qc, err := mQ.NewIndex(mmdr.WithParallelism(1), mmdr.WithCostCounter(&ctr))
	if err != nil {
		return err
	}
	ctr.Reset()
	counted := func(qs []float64, k int) ([][]mmdr.Neighbor, error) { return qc.BatchKNNQuantized(qs, k, quantBudget) }
	if _, err := b.slices(counted, "quant.BatchKNNQuantized", parent); err != nil {
		return err
	}
	b.rep["quant.distance_ops_per_query"] = float64(ctr.Metrics().DistanceOps) / float64(b.o.scale.probe)
	return nil
}
