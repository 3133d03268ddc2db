package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"mmdr"
	"mmdr/internal/dataset"
	"mmdr/internal/query"
	"mmdr/internal/serve"
)

// benchmarkJSON mirrors the parts of BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, bj.Workloads[i], w.name, w.why)
		}
	}
	type nu struct{ name, unit string }
	compare := func(list string, json []nu, specs []metricSpec) {
		if len(json) != len(specs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", list, len(json), len(specs))
			return
		}
		for i, s := range specs {
			if json[i] != (nu{s.name, s.unit}) {
				t.Errorf("%s %d: BENCHMARK.json %v, program {%s %s}", list, i, json[i], s.name, s.unit)
			}
		}
	}
	var e2e, layer []nu
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, nu{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, nu{m.Name, m.Unit})
	}
	compare("end_to_end", e2e, endToEnd)
	compare("per_layer", layer, perLayer)
}

// runTiny runs one workload at the tiny scale and returns its parsed result.
func runTiny(t *testing.T, workload string, seed int64, trace int) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", itoa(seed), "--seconds", "0.3",
		"--trace", itoa(int64(trace)), "--scale", "tiny", "--trace-dir", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%d: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	return r
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// TestWorkloadsEmitEveryMetric runs every workload at the tiny scale in
// both modes: each must pass its gates and emit exactly its mode's metrics
// with their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
			r := runTiny(t, w.name, 1, trace)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(r.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := r.Metrics[s.name]
				if !ok || m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v, want a finite value in %s", w.name, trace, s.name, m, s.unit)
				}
			}
		}
	}
}

// TestCountsRepeatPerSeed: recall and the per-query work counts repeat
// exactly across runs with the same seed.
func TestCountsRepeatPerSeed(t *testing.T) {
	a, b := runTiny(t, "batch-exact", 7, 1), runTiny(t, "batch-exact", 7, 1)
	for _, name := range []string{"idist.distance_ops_per_query", "idist.page_reads_per_query", "core.avg_dim"} {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v", name, a.Metrics[name], b.Metrics[name])
		}
	}
	r1, r2 := runTiny(t, "batch-approx", 7, 0), runTiny(t, "batch-approx", 7, 0)
	if r1.Metrics["recall_at_10"] != r2.Metrics["recall_at_10"] {
		t.Errorf("recall_at_10: %v then %v", r1.Metrics["recall_at_10"], r2.Metrics["recall_at_10"])
	}
}

// tinySystem builds a batch-exact system at the tiny scale.
func tinySystem(t *testing.T) *bench {
	t.Helper()
	sc := scales["tiny"]
	in, err := generate(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := setup(setupExact, in.dataset(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &bench{o: options{scale: sc, seconds: 0.05}, in: in, truth: in.truth(), sys: sys, tally: &tally{}, rep: report{}}
}

// corrupt returns a copy of answers with one distance moved by one ulp.
func corrupt(answers [][]mmdr.Neighbor, i int) [][]mmdr.Neighbor {
	out := make([][]mmdr.Neighbor, len(answers))
	for j, a := range answers {
		out[j] = append([]mmdr.Neighbor(nil), a...)
	}
	out[i][0].Dist = math.Nextafter(out[i][0].Dist, math.Inf(1))
	return out
}

// TestGatesTripOnCorruptedAnswers feeds every gate one deliberately
// corrupted answer and expects exactly one failed operation.
func TestGatesTripOnCorruptedAnswers(t *testing.T) {
	b := tinySystem(t)
	exact, err := b.sys.idx.BatchKNN(b.in.queries, k)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := b.sys.model.NewSeqScan().BatchKNN(b.in.queries, k)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("exact vs seqscan", func(t *testing.T) {
		tl := &tally{}
		tl.check("gate", exact, oracle)
		if tl.failed() != 0 {
			t.Fatalf("clean answers failed %d", tl.failed())
		}
		tl.check("gate", corrupt(exact, 5), oracle)
		if tl.mismatch != 1 {
			t.Fatalf("mismatch = %d, want 1", tl.mismatch)
		}
		wrongID := corrupt(exact, 0)
		wrongID[0][0] = mmdr.Neighbor{ID: exact[0][0].ID + 1, Dist: exact[0][0].Dist}
		tl = &tally{}
		tl.check("gate", wrongID, oracle)
		if tl.mismatch != 1 {
			t.Fatalf("wrong id: mismatch = %d, want 1", tl.mismatch)
		}
	})

	t.Run("batch window", func(t *testing.T) {
		b.tally = &tally{}
		calls := 0
		call := func(qs []float64) ([][]mmdr.Neighbor, error) {
			got, err := b.sys.idx.BatchKNN(qs, k)
			if calls++; calls == 1 {
				got = corrupt(got, 3)
			}
			return got, err
		}
		if _, err := b.batchWindow("idist.BatchKNN", call, exact, nil, nil); err != nil {
			t.Fatal(err)
		}
		if b.tally.mismatch != 1 {
			t.Fatalf("mismatch = %d, want 1", b.tally.mismatch)
		}
	})

	t.Run("served vs direct", func(t *testing.T) {
		b.tally = &tally{}
		body := func(nbs []mmdr.Neighbor) []byte {
			out := serve.NeighborsResponse{}
			for _, n := range nbs {
				out.Neighbors = append(out.Neighbors, serve.NeighborJSON{ID: n.ID, Dist: n.Dist})
			}
			raw, _ := json.Marshal(out)
			return raw
		}
		bad := corrupt(exact, 1)
		sched := []arrival{{kind: opKNN, arg: 0}, {kind: opKNN, arg: 1}}
		samples := []sample{
			{outcome: outcome{status: 200, body: body(exact[0])}},
			{outcome: outcome{status: 200, body: body(bad[1])}},
		}
		b.account(sched, samples, exact, true)
		if b.tally.mismatch != 1 || b.tally.succeeded != 1 {
			t.Fatalf("mismatch = %d succeeded = %d, want 1 and 1", b.tally.mismatch, b.tally.succeeded)
		}
	})

	t.Run("writes", func(t *testing.T) {
		b.tally = &tally{}
		sched := []arrival{{kind: opInsert}, {kind: opDelete}, {kind: opKNN}}
		samples := []sample{
			{outcome: outcome{status: 200, body: []byte(`{"id":0}`)}}, // ids below n were never assigned
			{outcome: outcome{status: 200, body: []byte(`{"found":false}`)}},
			{outcome: outcome{status: 429}},
		}
		b.account(sched, samples, exact, false)
		if b.tally.mismatch != 2 || b.tally.rejected != 1 {
			t.Fatalf("mismatch = %d rejected = %d, want 2 and 1", b.tally.mismatch, b.tally.rejected)
		}
	})

	t.Run("final-state oracle", func(t *testing.T) {
		deleted := map[int]bool{oracle[0][0].ID: true}
		scan, err := b.sys.model.NewSeqScan().BatchKNN(b.in.query(0), k+1)
		if err != nil {
			t.Fatal(err)
		}
		want := withoutDeleted(scan[0], deleted)
		tl := &tally{}
		tl.check("gate", [][]mmdr.Neighbor{oracle[0]}, [][]mmdr.Neighbor{want}) // still holds the deleted point
		tl.check("gate", [][]mmdr.Neighbor{want}, [][]mmdr.Neighbor{want})
		if tl.mismatch != 1 || tl.succeeded != 1 {
			t.Fatalf("mismatch = %d succeeded = %d, want 1 and 1", tl.mismatch, tl.succeeded)
		}
	})
}

// TestServedAnswersSurviveJSON: the served-vs-direct gate relies on JSON
// round-tripping float64 distances bit-exactly.
func TestServedAnswersSurviveJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var nbs []serve.NeighborJSON
	var want []mmdr.Neighbor
	for i := 0; i < 1000; i++ {
		d := rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6))
		nbs = append(nbs, serve.NeighborJSON{ID: i, Dist: d})
		want = append(want, mmdr.Neighbor{ID: i, Dist: d})
	}
	raw, err := json.Marshal(serve.NeighborsResponse{Neighbors: nbs})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeNeighbors(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswer(got, want) {
		t.Fatal("distances changed through JSON")
	}
}

// TestRecallIsThePapersPrecision: exact answers' recall equals
// Model.EvaluatePrecision, and the pruned brute force equals the library's
// exact KNN.
func TestRecallIsThePapersPrecision(t *testing.T) {
	b := tinySystem(t)
	ds, err := dataset.FromData(b.in.dim, b.in.base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.in.numQueries(); i++ {
		var want []int
		for _, n := range query.ExactKNN(ds, b.in.query(i), k) {
			want = append(want, n.ID)
		}
		if got := b.truth[i]; !equalInts(got, want) {
			t.Fatalf("query %d: truth %v, query.ExactKNN %v", i, got, want)
		}
	}
	exact, err := b.sys.idx.BatchKNN(b.in.queries, k)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.sys.model.EvaluatePrecision(b.in.queries, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := meanRecall(exact, b.truth); math.Abs(got-want) > 1e-12 {
		t.Fatalf("recall %v, EvaluatePrecision %v", got, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScheduleFixesLoad: a schedule holds exactly rate×seconds arrivals in
// order inside the window, with the mix's exact counts, and repeats per seed.
func TestScheduleFixesLoad(t *testing.T) {
	mk := func(seed int64) []arrival {
		var ni, nd int
		return schedule(rand.New(rand.NewSource(seed)), 200, 10, mix{knn: 0.9, insert: 0.05, delete: 0.05}, 100, &ni, &nd)
	}
	s := mk(4)
	if len(s) != 2000 {
		t.Fatalf("%d arrivals, want 2000", len(s))
	}
	counts := map[opKind]int{}
	for i, a := range s {
		counts[a.kind]++
		if a.at < 0 || a.at >= 10*time.Second || (i > 0 && a.at < s[i-1].at) {
			t.Fatalf("arrival %d at %v out of order or outside the window", i, a.at)
		}
	}
	if counts[opKNN] != 1800 || counts[opInsert] != 100 || counts[opDelete] != 100 {
		t.Fatalf("mix %v", counts)
	}
	again := mk(4)
	for i := range s {
		if s[i] != again[i] {
			t.Fatalf("arrival %d differs across runs of one seed", i)
		}
	}
}

// TestImpossibleScaleFails: a scale that draws more held-out points than
// it generates is an error, not a short query set.
func TestImpossibleScaleFails(t *testing.T) {
	sc := scales["tiny"]
	sc.queries = sc.pool + 1
	if _, err := generate(sc, 1); err == nil {
		t.Fatal("generate accepted more queries than the pool holds")
	}
}
