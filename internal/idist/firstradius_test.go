package idist

import (
	"math/rand"
	"testing"

	"mmdr/internal/core"
	"mmdr/internal/datagen"
	"mmdr/internal/dataset"
	"mmdr/internal/index"
	"mmdr/internal/reduction"
)

// Exactness lockdown for the fused search's per-query radius schedule and
// the (Dist, ID) tie-break it relies on. The fused tile starts each query
// at a density estimate of its k-NN radius and grows it geometrically,
// while the solo search steps by deltaR, so the two visit rows in different
// orders; answers agree bitwise only because both searches are exact and
// the top-k accumulator keeps the k smallest by (Dist, ID) whatever the
// visit order.

// dupSetup reduces a correlated collection in which every point is stored
// twice (rows i and i+n), so every stored-point query has an exact tie at
// distance 0 and every neighbour an equidistant twin.
func dupSetup(t *testing.T, n, dim int, seed int64) (*dataset.Dataset, *reduction.Result) {
	t.Helper()
	cfg := datagen.CorrelatedConfig{N: n, Dim: dim, NumClusters: 3, SDim: 2, VarRatio: 20, Seed: seed}
	base, _, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	datagen.Normalize(base)
	data := append(append([]float64(nil), base.Data...), base.Data...)
	ds, err := dataset.FromData(dim, data)
	if err != nil {
		t.Fatal(err)
	}
	red, err := core.New(core.Params{Seed: seed, MaxEC: 5}).Reduce(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := red.Validate(ds.N); err != nil {
		t.Fatal(err)
	}
	return ds, red
}

// TestDuplicatePointsBreakTiesByID: with every point stored twice, KNN,
// BatchKNN, the sequential scan and the frozen reference must return the
// same k smallest by (Dist, ID), bitwise, whatever order each visits rows.
func TestDuplicatePointsBreakTiesByID(t *testing.T) {
	ds, red := dupSetup(t, 400, 12, 61)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scan := index.NewSeqScan(ds, red, nil)
	qs := make([][]float64, 200)
	for i := range qs {
		qs[i] = ds.Point((i * 37) % ds.N)
	}
	for _, k := range []int{1, 3, 5, 9} {
		batch := idx.BatchKNN(qs, k, 1)
		for qi, q := range qs {
			want := scan.KNN(q, k)
			sameNeighbors(t, "knn-vs-seqscan", idx.KNN(q, k), want)
			sameNeighbors(t, "batch-vs-seqscan", batch[qi], want)
			sameNeighbors(t, "reference-vs-seqscan", idx.ReferenceKNN(q, k), want)
		}
	}
}

// sameBatchSoloScan asserts BatchKNN ≡ KNN ≡ seqscan, bitwise, for every
// query, through one batch call holding all of them.
func sameBatchSoloScan(t *testing.T, label string, idx *Index, scan *index.SeqScan, qs [][]float64, k int) {
	t.Helper()
	batch := idx.BatchKNN(qs, k, 1)
	for qi, q := range qs {
		want := scan.KNN(q, k)
		sameNeighbors(t, label+"/knn", idx.KNN(q, k), want)
		sameNeighbors(t, label+"/batch", batch[qi], want)
	}
}

// A partition whose members all sit on its reference point has a zero
// mean distance, so a query on that point estimates a zero radius and
// falls back to deltaR; the search must still terminate and stay exact.
func TestFirstRadiusZeroSpreadPartition(t *testing.T) {
	const dim, copies, spread = 4, 40, 200
	rng := rand.New(rand.NewSource(74))
	var data []float64
	for i := 0; i < copies; i++ {
		data = append(data, 5, 5, 5, 5)
	}
	for i := 0; i < spread*dim; i++ {
		data = append(data, rng.Float64())
	}
	ds, err := dataset.FromData(dim, data)
	if err != nil {
		t.Fatal(err)
	}
	red, err := (&reduction.Identity{Clusters: 2, Seed: 74}).Reduce(ds)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	zero := -1
	for pi, pd := range idx.layout.dens {
		if pd.n == copies && pd.mean == 0 {
			zero = pi
		}
	}
	if zero < 0 {
		t.Fatalf("no partition holds the %d coincident points at zero spread: %+v", copies, idx.layout.dens)
	}
	qs := [][]float64{ds.Point(0), ds.Point(copies + 7), {4.9, 5, 5.1, 5}}
	bs := idx.getBatchScratch()
	idx.primeTile(bs, qs[:1])
	idx.densityRadii(bs, 5)
	if r0 := idx.firstRadius(bs, 0); r0 != idx.deltaR {
		t.Fatalf("query on the coincident points opens at %v, want the deltaR fallback %v", r0, idx.deltaR)
	}
	idx.putBatchScratch(bs)
	scan := index.NewSeqScan(ds, red, nil)
	for _, k := range []int{1, 5, copies + 5, ds.N} {
		sameBatchSoloScan(t, "zero-spread", idx, scan, qs, k)
	}
}

// Each merge (rebuildLayout) must refresh the density summary: member
// counts grow by exactly the rows inserted into each partition since the
// build, and the rows still pending in the delta stay out of it until the
// next merge.
func TestRebuildLayoutRefreshesDensity(t *testing.T) {
	ds, red := testSetup(t, 600, 10, 3, 75)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]partDensity(nil), idx.layout.dens...)
	rng := rand.New(rand.NewSource(76))
	added := make([]float64, len(idx.parts))
	merges := 0
	for i := 0; i < 60; i++ {
		p := append([]float64(nil), ds.Point(rng.Intn(ds.N))...)
		for j := range p {
			p[j] += 0.01 * rng.NormFloat64()
		}
		lay := idx.layout
		id, err := idx.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		// An insert far from every subspace may open an outlier partition.
		for len(added) < len(idx.parts) {
			added = append(added, 0)
		}
		added[idx.partOf[id]]++
		if idx.layout == lay {
			continue
		}
		merges++
		var total float64
		for pi, pd := range idx.layout.dens {
			var was float64
			if pi < len(before) {
				was = before[pi].n
			}
			if pd.n != was+added[pi] {
				t.Fatalf("partition %d: n_p %v after merge, want %v + %v inserted", pi, pd.n, was, added[pi])
			}
			total += pd.n
		}
		if int(total) != idx.tree.Len() {
			t.Fatalf("density counts sum to %v, tree holds %d", total, idx.tree.Len())
		}
	}
	if merges < 2 {
		t.Fatalf("60 inserts crossed %d merges, want at least 2", merges)
	}
	if idx.layout.pending == 0 {
		t.Fatal("want rows pending in the delta at the end of the stream")
	}
	sameBatchSoloScan(t, "merged", idx, index.NewSeqScan(ds, red, nil), equivQueries(ds, 12, 77), 10)
}
