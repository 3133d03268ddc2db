package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"mmdr"
	"mmdr/internal/serve"
)

// workload is one named traffic mix. why records the reason the workload
// exists; BENCHMARK.json repeats it.
type workload struct {
	name string
	why  string
	kind setupKind
}

// The machine the benchmark targets has two cores, so each workload's load
// comes from one process with at most two connections or one driving
// goroutine, and query-side index parallelism is 1: on a shared two-core
// machine one stalled core stretches every two-worker batch.
var workloads = []workload{
	{
		// Open loop, seeded Poisson arrivals at 200 KNN requests/s (k=10)
		// over 2 keep-alive connections, to an in-process serve.Server on
		// loopback configured as cmd/mmdrserve -shards 2: registry
		// attached, Workers=1, default tile and linger. At ~1.5 ms served
		// against ~0.13 ms of kernel, HTTP, JSON, admission and linger do
		// most of the work here and the kernel little. Its write samples
		// come from direct-write bursts after the window (writeBursts).
		name: "serve-read", kind: setupServe,
		why: "HTTP, JSON, admission and linger dominate a served KNN: the serving layers, not the kernel, set latency",
	},
	{
		// The same server, rate and connections; 90% KNN, 5% /insert of
		// held-out points, 5% /delete of seeded base ids. The first write
		// drops the SoA layout on both replicas and the sequencer
		// broadcasts every write to both, so a change that helps reads but
		// costs writes shows here. The snapshot + delta design (ROADMAP
		// item 2) should move this workload and not serve-read.
		name: "serve-rw", kind: setupServe,
		why: "reads beside writes: the first write drops the SoA layout on both replicas and every write is broadcast",
	},
	{
		// One goroutine calls Index.BatchKNN (k=10, parallelism 1) on
		// consecutive 64-query slices of the held-out queries; no HTTP, no
		// registry. The fused iDistance kernel does nearly all the work: a
		// kernel gain shows here in full, and a change to the serving
		// layers should show no change.
		name: "batch-exact", kind: setupExact,
		why: "the fused iDistance kernel alone, serving layers bypassed: kernel gains show in full, serving changes not at all",
	},
	{
		// The same driver over BatchKNNQuantized with a Blocks=2 quantizer
		// at budget 130. The only workload that runs quant: training in
		// setup, ADC scan and exact re-rank in the window. A change that
		// trades recall for speed shows as recall_at_10 moving against
		// knn_qps.
		name: "batch-approx", kind: setupApprox,
		why: "the only workload that runs the quantizer: training in setup, ADC scan and re-rank in the window",
	},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// lateLimit marks a serve run invalid: when the generator's p99 send
// delay exceeds it, the run measured a backlog, not the offered rate.
const lateLimit = 100 * time.Millisecond

// serveConns is the load generator's connection count.
const serveConns = 2

// bench is the state of one run.
type bench struct {
	o     options
	in    *inputs
	truth [][]int
	sys   *system
	spare *mmdr.Model // identical model for reference answers
	tally *tally
	rep   report
	tr    *tracer // nil unless --trace 1
	log   io.Writer

	writeP50 []float64 // ms, one per direct-write burst
}

// passes is the number of timed windows: the traced run measures the
// window untraced and then traced, and reports the ratio.
func (b *bench) passes() int {
	if b.tr != nil {
		return 2
	}
	return 1
}

// passTracer is the tracer of window pass p: nil (off) for the first.
func (b *bench) passTracer(p int) *tracer {
	if p == 0 {
		return nil
	}
	return b.tr
}

func (b *bench) window() time.Duration { return time.Duration(b.o.seconds * float64(time.Second)) }

// runWorkload runs one workload end to end and assembles its result.
func runWorkload(w workload, o options, log io.Writer) (*result, error) {
	start := time.Now()
	in, err := generate(o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	generated := time.Now()
	b := &bench{o: o, in: in, truth: in.truth(), tally: &tally{log: log}, rep: report{}, log: log}
	fmt.Fprintf(log, "perfbench: inputs %v, ground truth %v\n", generated.Sub(start).Round(time.Millisecond), time.Since(generated).Round(time.Millisecond))
	if o.trace {
		b.tr = newTracer()
	}
	sys, spare, secs, mem, err := setupTimes(w.kind, in, o.scale.setupReps, b.tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	b.sys, b.spare = sys, spare
	b.rep["setup_s"] = median(secs)
	b.rep["mem_mb"] = median(mem)
	fmt.Fprintf(log, "perfbench: setup_s %.3f mem_mb %.1f over %d repetitions\n", median(secs), median(mem), len(secs))
	if w.kind == setupServe {
		err = b.runServe(w.name == "serve-rw")
	} else {
		err = b.runBatch(w.kind == setupApprox)
	}
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	specs := endToEnd
	if o.trace {
		b.sys, b.spare = nil, nil
		if err := b.sweep(); err != nil {
			return nil, fmt.Errorf("layer sweep: %w", err)
		}
		path, err := b.tr.write(o.traceDir, w.name, o.seed)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(log, "perfbench: spans written to %s\n", path)
		specs = perLayer
	}
	metrics, err := b.rep.metrics(specs)
	if err != nil {
		return nil, err
	}
	t := b.tally
	fmt.Fprintf(log, "perfbench: %s seed %d: attempted %d succeeded %d failed %d (429 %d, other status %d, transport %d, mismatch %d)\n",
		w.name, o.seed, t.attempted, t.succeeded, t.failed(), t.rejected, t.badStatus, t.transport, t.mismatch)
	if t.invalid != "" {
		fmt.Fprintf(log, "perfbench: run invalid: %s\n", t.invalid)
	}
	return &result{
		Correct:   t.mismatch == 0 && t.invalid == "",
		Attempted: t.attempted,
		Failed:    t.failed(),
		Metrics:   metrics,
	}, nil
}

// runBatch runs batch-exact or batch-approx on b.sys.idx.
func (b *bench) runBatch(approx bool) error {
	idx, in := b.sys.idx, b.in
	// Gate: exact answers equal the sequential-scan oracle bitwise.
	exact, err := idx.BatchKNN(in.queries, k)
	if err != nil {
		return err
	}
	oracle, err := b.sys.model.NewSeqScan().BatchKNN(in.queries, k)
	if err != nil {
		return err
	}
	b.tally.check("exact vs seqscan", exact, oracle)

	name, call := "idist.BatchKNN", func(qs []float64) ([][]mmdr.Neighbor, error) { return idx.BatchKNN(qs, k) }
	answers := exact
	if approx {
		// Gate: at full budget the quantized search is the exact search.
		full, err := idx.BatchKNNQuantized(in.slice(0), k, b.o.scale.n)
		if err != nil {
			return err
		}
		b.tally.check("quantized at full budget vs exact", full, exact[:batchSize])
		name, call = "quant.BatchKNNQuantized", func(qs []float64) ([][]mmdr.Neighbor, error) {
			return idx.BatchKNNQuantized(qs, k, quantBudget)
		}
		// This pass over every slice is also the warm-up.
		answers = answers[:0:0]
		for s := 0; s < in.numQueries()/batchSize; s++ {
			a, err := call(in.slice(s))
			if err != nil {
				return err
			}
			answers = append(answers, a...)
		}
	}
	b.rep["recall_at_10"] = meanRecall(answers, b.truth)

	// Direct writes go to an index of their own, on the identical spare
	// model, so the window's index keeps its layout. Its first insert
	// drops the layout and regrows the dataset (a 51 MB copy at paper
	// scale); that and the collection after it happen before the window.
	writes, err := b.spare.NewIndex(mmdr.WithParallelism(1))
	if err != nil {
		return err
	}
	if _, err := writes.Insert(in.burstPoint(0)); err != nil {
		return err
	}
	var p50 []time.Duration
	for pass := 0; pass < b.passes(); pass++ {
		times, err := b.batchWindow(name, call, answers, writes, b.passTracer(pass))
		if err != nil {
			return err
		}
		p50 = append(p50, quantile(times, 0.5))
		if pass == 0 {
			best := bestPass(times, in.numQueries()/batchSize)
			b.rep["knn_p50_ms"] = ms(quantile(best, 0.5))
			b.rep["knn_p95_ms"] = ms(quantile(times, 0.95))
			b.rep["knn_qps"] = float64(len(best)*batchSize) / sum(best).Seconds()
		}
	}
	if b.tr != nil {
		b.rep["trace.overhead_share"] = float64(p50[1])/float64(p50[0]) - 1
	}

	b.rep["write_p50_ms"] = minOf(b.writeP50)
	return nil
}

// batchWindow calls call on consecutive query slices for the window
// length, timing every call and checking every answer against want. Every
// burstEvery it also runs one burst of direct writes on writes (when not
// nil) and keeps the burst's p50: the run reports the best burst,
// as it reports the best pass. A host slowdown lasts seconds, and bursts
// spread over the window dodge it where one burst after it did not: the
// median of a single burst moved by 60% between runs.
func (b *bench) batchWindow(name string, call func([]float64) ([][]mmdr.Neighbor, error), want [][]mmdr.Neighbor, writes *mmdr.Index, tr *tracer) ([]time.Duration, error) {
	slices := b.in.numQueries() / batchSize
	times := make([]time.Duration, 0, 4096)
	// The window runs on one P. With two, the Go scheduler moves the lone
	// driving goroutine between the machine's two vCPUs, and a window's
	// throughput swung by ±20% from run to run; on one P (the collector
	// included) it holds within a few percent. The driving thread is then
	// pinned to each CPU in turn, one pass over the slices at a time: a
	// neighbour on the host can slow one vCPU by 1.8x for minutes, and a
	// window left on that vCPU was slow in every pass, best one included.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer pinThread(-1)
	runtime.GC()
	root := tr.begin("window", 0, 0)
	defer tr.end(root)
	length := b.window()
	start := time.Now()
	nextBurst := start.Add(burstEvery / 2)
	for i := 0; i == 0 || time.Since(start) < length; i++ {
		if writes != nil && time.Now().After(nextBurst) {
			ins, del, err := b.directWrites(writes, writeBurst)
			if err != nil {
				return nil, err
			}
			b.writeP50 = append(b.writeP50, ms(quantile(append(ins, del...), 0.5)))
			nextBurst = nextBurst.Add(burstEvery)
		}
		s := i % slices
		if s == 0 {
			pinThread(i / slices % runtime.NumCPU())
		}
		id := tr.begin(name, root, int64(i))
		t0 := time.Now()
		got, err := call(b.in.slice(s))
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		times = append(times, d)
		for j, a := range got {
			b.tally.attempted++
			b.tally.answer("window", s*batchSize+j, a, want[s*batchSize+j])
		}
	}
	return times, nil
}

// bestPass is a batch window's best pass over the query slices, the way
// ann-benchmarks reports the fastest of several runs over a query set:
// each slice's fastest call in the window (~15 calls per slice at paper
// scale). knn_qps is the pass's query count over its total time and
// knn_p50_ms its median call. On the shared two-vCPU machine the benchmark
// targets, neighbours slow a core by up to 1.8x for seconds at a time; the
// window's query count over its wall time and its median call moved by
// 20-40% between runs, while the best pass changes only when a slowdown
// covers the whole window. knn_p95_ms stays the tail of every call.
func bestPass(times []time.Duration, slices int) []time.Duration {
	best := make([]time.Duration, 0, slices)
	for s := 0; s < slices && s < len(times); s++ {
		m := times[s]
		for i := s + slices; i < len(times); i += slices {
			m = min(m, times[i])
		}
		best = append(best, m)
	}
	return best
}

// directWrites times direct writes on idx for about d: inserts of the
// burst points in turn, every third one deleted again right after. Three
// inserts to one delete put the p50 among the inserts, the slower and more
// common kind; an even mix put the median on the boundary between the two
// kinds.
func (b *bench) directWrites(idx *mmdr.Index, d time.Duration) (insT, delT []time.Duration, err error) {
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < d; i++ {
		t0 := time.Now()
		id, err := idx.Insert(b.in.burstPoint(i))
		insT = append(insT, time.Since(t0))
		if err != nil {
			return nil, nil, err
		}
		if i%3 != 2 {
			continue
		}
		t0 = time.Now()
		found, err := idx.Delete(id)
		delT = append(delT, time.Since(t0))
		if err != nil {
			return nil, nil, err
		}
		if !found {
			return nil, nil, fmt.Errorf("delete of inserted id %d found nothing", id)
		}
	}
	return insT, delT, nil
}

// A batch window runs a writeBurst of direct writes every burstEvery.
const (
	writeBurst = 40 * time.Millisecond
	burstEvery = time.Second
)

// runServe runs serve-read or serve-rw against b.sys.srv over HTTP.
func (b *bench) runServe(rw bool) error {
	in := b.in
	ref, err := b.spare.NewIndex(mmdr.WithParallelism(1))
	if err != nil {
		return err
	}
	direct, err := ref.BatchKNN(in.queries, k)
	if err != nil {
		return err
	}
	oracle, err := b.spare.NewSeqScan().BatchKNN(in.queries, k)
	if err != nil {
		return err
	}
	b.tally.check("direct vs seqscan", direct, oracle)
	b.rep["recall_at_10"] = meanRecall(direct, b.truth)

	h, err := newHTTPSender(b.sys.url, serveConns, in)
	if err != nil {
		return err
	}
	defer h.close()
	// Gate: every query served over HTTP equals direct BatchKNN on an
	// identical model bitwise. This pass is also the warm-up.
	if err := b.servedGate("served vs direct", h, direct[:b.o.scale.probe]); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(b.o.seed))
	m := mix{knn: 1}
	if rw {
		m = mix{knn: 0.90, insert: 0.05, delete: 0.05}
	}
	var nextIns, nextDel int
	var inserted []insertDone
	var deleted []int
	if rw {
		inserted, deleted = b.firstWrites(h, &nextIns, &nextDel)
	}
	var p50 []time.Duration
	for pass := 0; pass < b.passes(); pass++ {
		sched := schedule(rng, b.o.scale.rate, b.o.seconds, m, in.numQueries(), &nextIns, &nextDel)
		tr := b.passTracer(pass)
		h.tr, h.parent = tr, tr.begin("window", 0, int64(pass))
		runtime.GC()
		samples, window := openLoop(sched, serveConns, h.send)
		tr.end(h.parent)
		st := b.account(sched, samples, direct, !rw)
		inserted = append(inserted, st.inserted...)
		deleted = append(deleted, st.deleted...)
		p50 = append(p50, quantile(st.knn, 0.5))
		if pass == 0 {
			b.rep["knn_p50_ms"] = ms(quantile(st.knn, 0.5))
			b.rep["knn_p95_ms"] = ms(quantile(st.knn, 0.95))
			b.rep["knn_qps"] = float64(len(st.knn)) / window.Seconds()
			late := quantile(st.late, 0.99)
			b.rep["loadgen.late_p99_ms"] = ms(late)
			fmt.Fprintf(b.log, "perfbench: window %d requests, generator late p50 %v p99 %v\n", len(sched), quantile(st.late, 0.5), late)
			if late > lateLimit {
				b.tally.invalid = fmt.Sprintf("generator p99 send delay %v exceeds %v", late, lateLimit)
			}
			if rw {
				b.rep["write_p50_ms"] = ms(quantile(st.writes, 0.5))
			}
		}
	}
	if b.tr != nil {
		b.rep["trace.overhead_share"] = float64(p50[1])/float64(p50[0]) - 1
	}
	if rw {
		// Verification pass: answers over the final point set must equal
		// the oracle: the reference model with the same writes applied,
		// scanned sequentially, deleted ids dropped.
		return b.verifyWrites(h, ref, inserted, deleted)
	}
	// serve-read has no writes in its window. Its write samples come from
	// direct-write bursts after it, on an index of its own: see
	// writeBursts.
	if err := b.writeBursts(ref); err != nil {
		return err
	}
	b.rep["write_p50_ms"] = minOf(b.writeP50)
	fmt.Fprintf(b.log, "perfbench: write burst p50s (ms) %.3f\n", b.writeP50)
	return nil
}

// serveReadBursts is the number of serve-read's direct-write bursts, one
// every burstGap after its window.
const (
	serveReadBursts = 10
	burstGap        = 250 * time.Millisecond
)

// writeBursts is serve-read's write phase: serveReadBursts bursts of
// direct writes on idx, timed as the batch workloads time theirs, on one P
// with the thread pinned to each CPU in turn; the run reports the best
// burst. Served writes are measured on serve-rw only. On an idle server a
// served write is mostly thread wake-ups: the p50 of served writes after
// serve-read's window spread by 25% of its median across seeds on a noisy
// host when sent in one 4 s open-loop phase, and by 11-19% as the best of
// eight short bursts.
func (b *bench) writeBursts(idx *mmdr.Index) error {
	if _, err := idx.Insert(b.in.burstPoint(0)); err != nil { // drops the layout: see runBatch
		return err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer pinThread(-1)
	for i := 0; i < serveReadBursts; i++ {
		pinThread(i % runtime.NumCPU())
		time.Sleep(burstGap)
		ins, del, err := b.directWrites(idx, writeBurst)
		if err != nil {
			return err
		}
		b.writeP50 = append(b.writeP50, ms(quantile(append(ins, del...), 0.5)))
	}
	return nil
}

// firstWrites sends one insert and one delete before write latencies are
// measured. The first write drops the SoA layout and grows every replica's
// dataset (a 51 MB copy at paper scale); inside a window that one-time
// stall delayed a seed-dependent handful of requests and made the tail
// percentiles swing. Windows measure the steady state after it.
func (b *bench) firstWrites(h *httpSender, nextIns, nextDel *int) ([]insertDone, []int) {
	sched := []arrival{{kind: opInsert, arg: *nextIns}, {kind: opDelete, arg: *nextDel}}
	*nextIns++
	*nextDel++
	samples := make([]sample, len(sched))
	for i, a := range sched {
		samples[i].outcome = h.send(0, a, -1)
	}
	st := b.account(sched, samples, nil, false)
	return st.inserted, st.deleted
}

// servedGate fetches the leading len(want) queries over HTTP, closed loop
// on each connection, and checks the answers against want.
func (b *bench) servedGate(gate string, h *httpSender, want [][]mmdr.Neighbor) error {
	nq := len(want)
	outs := make([]outcome, nq)
	var wg sync.WaitGroup
	for c := range h.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < nq; i += len(h.clients) {
				outs[i] = h.send(c, arrival{kind: opKNN, arg: i}, int64(i))
			}
		}(c)
	}
	wg.Wait()
	for i, o := range outs {
		if !b.tally.status(o) {
			continue
		}
		got, err := decodeNeighbors(o.body)
		if err != nil {
			return err
		}
		b.tally.answer(gate, i, got, want[i])
	}
	return nil
}

// insertDone pairs a served insert's assigned id with its point.
type insertDone struct{ id, point int }

// serveStats is one open-loop window's account.
type serveStats struct {
	knn, writes, late []time.Duration
	inserted          []insertDone
	deleted           []int
}

// account classifies every sample of a window, checks KNN answers against
// direct when checkKNN is set (no writes happened), and collects latencies.
func (b *bench) account(sched []arrival, samples []sample, direct [][]mmdr.Neighbor, checkKNN bool) serveStats {
	var st serveStats
	for i, s := range samples {
		a := sched[i]
		st.late = append(st.late, s.late)
		if !b.tally.status(s.outcome) {
			continue
		}
		switch a.kind {
		case opKNN:
			st.knn = append(st.knn, s.lat)
			if !checkKNN {
				b.tally.succeeded++
				continue
			}
			got, err := decodeNeighbors(s.body)
			if err != nil {
				b.tally.mismatch++
				b.tally.note("window: %v", err)
				continue
			}
			b.tally.answer("served vs direct (window)", a.arg, got, direct[a.arg])
		case opInsert:
			st.writes = append(st.writes, s.lat)
			var r serve.InsertResponse
			if err := json.Unmarshal(s.body, &r); err != nil || r.ID < b.o.scale.n {
				b.tally.mismatch++
				b.tally.note("insert: bad response %s", s.body)
				continue
			}
			b.tally.succeeded++
			st.inserted = append(st.inserted, insertDone{id: r.ID, point: a.arg})
		case opDelete:
			st.writes = append(st.writes, s.lat)
			var r serve.DeleteResponse
			if err := json.Unmarshal(s.body, &r); err != nil || !r.Found {
				b.tally.mismatch++
				b.tally.note("delete of indexed id %d: response %s", b.in.deletes[a.arg], s.body)
				continue
			}
			b.tally.succeeded++
			st.deleted = append(st.deleted, b.in.deletes[a.arg])
		}
	}
	return st
}

// verifyWrites replays the server's writes on the reference index in the
// server's order (insert ids are assigned in sequence), then checks every
// query served over HTTP against a sequential scan of the final point set.
func (b *bench) verifyWrites(h *httpSender, ref *mmdr.Index, inserted []insertDone, deleted []int) error {
	sort.Slice(inserted, func(i, j int) bool { return inserted[i].id < inserted[j].id })
	for _, ins := range inserted {
		id, err := ref.Insert(b.in.insertPoint(ins.point))
		if err != nil {
			return err
		}
		if id != ins.id {
			b.tally.attempted++
			b.tally.mismatch++
			b.tally.note("verify: server assigned id %d, reference %d", ins.id, id)
		}
	}
	gone := make(map[int]bool, len(deleted))
	for _, id := range deleted {
		if _, err := ref.Delete(id); err != nil {
			return err
		}
		gone[id] = true
	}
	scan, err := b.spare.NewSeqScan().BatchKNN(b.in.queries[:b.o.scale.probe*b.in.dim], k+len(deleted))
	if err != nil {
		return err
	}
	want := make([][]mmdr.Neighbor, len(scan))
	for i, s := range scan {
		want[i] = withoutDeleted(s, gone)
	}
	return b.servedGate("served vs final-state oracle", h, want)
}
