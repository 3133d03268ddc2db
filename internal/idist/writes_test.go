package idist

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mmdr/internal/core"
	"mmdr/internal/datagen"
	"mmdr/internal/dataset"
	"mmdr/internal/index"
	"mmdr/internal/quant"
	"mmdr/internal/reduction"
)

// Write-stream lockdown. Inserts join an exact delta, deletes score their
// row +Inf, and every ⌈√n⌉ writes the layout merges (see soaLayout). After
// any prefix of a random write stream, every query path must answer
// exactly what the sequential scan answers over the same reduction with the
// deleted ids removed — bitwise, before, across and after each merge.

var (
	writeOnce  sync.Once
	writeDS    *dataset.Dataset
	writeRed   *reduction.Result
	writeQuant *quant.Set
	writeErr   error
)

// writeBase reduces the write fixture once: a small correlated collection
// with outliers, plus a trained quantizer. Streams never touch it; each
// builds its index over a copy (writeFixture).
func writeBase() error {
	writeOnce.Do(func() {
		cfg := datagen.CorrelatedConfig{N: 388, Dim: 10, NumClusters: 3, SDim: 2, VarRatio: 20, Seed: 613}
		ds, _, err := cfg.Generate()
		if err != nil {
			writeErr = err
			return
		}
		datagen.Normalize(ds)
		// Uniform noise no subspace represents: the outlier partition.
		rng := rand.New(rand.NewSource(613))
		for i := 0; i < 12; i++ {
			p := make([]float64, ds.Dim)
			for j := range p {
				p[j] = 2 * rng.Float64()
			}
			ds.Append(p)
		}
		red, err := core.New(core.Params{Seed: 613, MaxEC: 5}).Reduce(ds)
		if err != nil {
			writeErr = err
			return
		}
		if len(red.Outliers) == 0 {
			writeErr = fmt.Errorf("write fixture has no outliers")
			return
		}
		set, err := quant.TrainSet(ds, red, quant.Config{Blocks: 2, Bits: 4, Seed: 613})
		if err != nil {
			writeErr = err
			return
		}
		writeDS, writeRed, writeQuant = ds, red, set
	})
	return writeErr
}

// writeFixture copies what writes mutate — the dataset, each subspace's
// members, coordinates and radius, the outlier list — and builds a fresh
// quantized index over the copy, plus the sequential scan over the same
// copy.
func writeFixture(t testing.TB) (*Index, *index.SeqScan) {
	t.Helper()
	if err := writeBase(); err != nil {
		t.Fatal(err)
	}
	ds := writeDS.Clone()
	red := &reduction.Result{Dim: writeRed.Dim, Outliers: append([]int(nil), writeRed.Outliers...)}
	for _, s := range writeRed.Subspaces {
		c := *s
		c.Members = append([]int(nil), s.Members...)
		c.Coords = append([]float64(nil), s.Coords...)
		red.Subspaces = append(red.Subspaces, &c)
	}
	idx, err := Build(ds, red, Options{Quant: writeQuant})
	if err != nil {
		t.Fatal(err)
	}
	return idx, index.NewSeqScan(ds, red, nil)
}

// liveKNN is the oracle over the live points: the scan's k+len(dead)
// nearest with the deleted ids removed, cut to k.
func liveKNN(scan *index.SeqScan, q []float64, k int, dead map[int]bool) []index.Neighbor {
	var out []index.Neighbor
	for _, nb := range scan.KNN(q, k+len(dead)) {
		if !dead[nb.ID] && len(out) < k {
			out = append(out, nb)
		}
	}
	return out
}

// liveRange is the range oracle over the live points.
func liveRange(scan *index.SeqScan, q []float64, r float64, dead map[int]bool) []index.Neighbor {
	var out []index.Neighbor
	for _, nb := range scan.Range(q, r) {
		if !dead[nb.ID] {
			out = append(out, nb)
		}
	}
	return out
}

// writePoint draws a point to insert: mostly a perturbed stored point,
// sometimes an exact copy (ties broken by ID), sometimes a far point (the
// outlier partition, growing its radius).
func writePoint(rng *rand.Rand, ds *dataset.Dataset) []float64 {
	p := append([]float64(nil), ds.Point(rng.Intn(ds.N))...)
	switch u := rng.Float64(); {
	case u < 0.15:
	case u < 0.25:
		for j := range p {
			p[j] = 3 * rng.Float64()
		}
	default:
		for j := range p {
			p[j] += 0.02 * rng.NormFloat64()
		}
	}
	return p
}

// writeStream runs one random stream of at least 3⌈√n⌉ inserts and deletes
// (and at least three merges) against a fresh fixture, checking every
// query path after every every-th write. insertShare sets the share of
// inserts in the stream. It returns the number of merges crossed.
func writeStream(t *testing.T, seed int64, insertShare uint8, every int) int {
	idx, scan := writeFixture(t)
	rng := rand.New(rand.NewSource(seed))
	live := make([]int, idx.ds.N)
	for i := range live {
		live[i] = i
	}
	dead := map[int]bool{}
	minWrites := 3 * int(math.Ceil(math.Sqrt(float64(idx.ds.N))))
	ins := 0.3 + 0.6*float64(insertShare)/255
	merges := 0
	for w := 0; w < minWrites || merges < 3; w++ {
		if w > 20*minWrites {
			t.Fatalf("%d writes crossed only %d merges", w, merges)
		}
		lay := idx.layout
		if len(live) == 0 || rng.Float64() < ins {
			id, err := idx.Insert(writePoint(rng, idx.ds))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		} else {
			i := rng.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if !idx.Delete(id) {
				t.Fatalf("write %d: Delete(%d) found nothing", w, id)
			}
			dead[id] = true
		}
		if idx.layout != lay {
			merges++
			if idx.layout.pending != 0 {
				t.Fatalf("write %d: merge left %d writes pending", w, idx.layout.pending)
			}
		}
		if w%every == 0 {
			checkLive(t, fmt.Sprintf("write %d", w), idx, scan, dead, rng, len(live))
		}
	}
	checkLive(t, "end", idx, scan, dead, rng, len(live))
	return merges
}

// checkLive pits every query path against the live-point oracle for a few
// random queries: KNN (k sometimes above the live count), BatchKNN, Range
// and BatchRange (the radius sometimes infinite), full-budget
// KNNQuantized, and BatchKNNQuantized against KNNQuantized at a partial
// budget.
func checkLive(t *testing.T, label string, idx *Index, scan *index.SeqScan, dead map[int]bool, rng *rand.Rand, nLive int) {
	t.Helper()
	qs := make([][]float64, 3)
	for i := range qs {
		qs[i] = writePoint(rng, idx.ds)
	}
	k := 1 + rng.Intn(20)
	if rng.Intn(4) == 0 {
		k = nLive + 1 + rng.Intn(5)
	}
	r := 0.6 * rng.Float64()
	if rng.Intn(8) == 0 {
		r = math.Inf(1) // deleted rows score +Inf and pass r² = +Inf
	}
	batch := idx.BatchKNN(qs, k, 1)
	batchR := idx.BatchRange(qs, r, 2)
	budget := k + rng.Intn(60)
	batchQ, err := idx.BatchKNNQuantized(qs, k, budget, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want := liveKNN(scan, q, k, dead)
		sameNeighbors(t, label+"/knn", idx.KNN(q, k), want)
		sameNeighbors(t, label+"/batch", batch[i], want)
		full, err := idx.KNNQuantized(q, k, idx.ds.N)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, label+"/quantized-full", full, want)
		solo, err := idx.KNNQuantized(q, k, budget)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, label+"/quantized-batch", batchQ[i], solo)
		for _, nb := range solo {
			if dead[nb.ID] {
				t.Fatalf("%s: deleted id %d in a quantized answer", label, nb.ID)
			}
		}
		wantR := liveRange(scan, q, r, dead)
		sameNeighbors(t, label+"/range", idx.Range(q, r), wantR)
		sameNeighbors(t, label+"/batch-range", batchR[i], wantR)
	}
}

// FuzzWritesVsSeqScan drives random write streams: the seed picks the
// points, the deleted ids and the queries, insertShare the mix of inserts
// and deletes, checkEvery how many writes pass between query checks.
func FuzzWritesVsSeqScan(f *testing.F) {
	if err := writeBase(); err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), uint8(128), uint8(0))
	f.Add(int64(2), uint8(255), uint8(2))
	f.Add(int64(3), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, insertShare, checkEvery uint8) {
		if merges := writeStream(t, seed, insertShare, int(checkEvery)%4+1); merges < 3 {
			t.Fatalf("stream crossed %d merges, want at least 3", merges)
		}
	})
}
