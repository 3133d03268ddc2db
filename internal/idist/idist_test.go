package idist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mmdr/internal/core"
	"mmdr/internal/datagen"
	"mmdr/internal/dataset"
	"mmdr/internal/index"
	"mmdr/internal/iostat"
	"mmdr/internal/matrix"
	"mmdr/internal/reduction"
)

// testSetup reduces a correlated dataset with MMDR and returns everything
// the index tests need.
func testSetup(t *testing.T, n, dim, clusters int, seed int64) (*dataset.Dataset, *reduction.Result) {
	t.Helper()
	cfg := datagen.CorrelatedConfig{N: n, Dim: dim, NumClusters: clusters, SDim: 2, VarRatio: 20, Seed: seed}
	ds, _, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	datagen.Normalize(ds)
	red, err := core.New(core.Params{Seed: seed, MaxEC: clusters + 2}).Reduce(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := red.Validate(ds.N); err != nil {
		t.Fatal(err)
	}
	return ds, red
}

func TestBuildValidation(t *testing.T) {
	ds := dataset.New(0, 4)
	if _, err := Build(ds, &reduction.Result{Dim: 4}, Options{}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	ds2 := dataset.New(3, 4)
	if _, err := Build(ds2, &reduction.Result{Dim: 4}, Options{}); err == nil {
		t.Fatal("expected error for empty reduction")
	}
}

func TestBuildStructure(t *testing.T) {
	ds, red := testSetup(t, 600, 10, 2, 91)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Name() != "iDistance" {
		t.Fatal("name")
	}
	if idx.Tree().Len() != ds.N {
		t.Fatalf("tree has %d entries, want %d", idx.Tree().Len(), ds.N)
	}
	if idx.C() <= 0 {
		t.Fatal("non-positive stretching constant")
	}
	// Keys of partition i must live in [i*c, (i+1)*c).
	max, ok := idx.Tree().Max()
	if !ok {
		t.Fatal("empty tree")
	}
	nParts := len(red.Subspaces)
	if len(red.Outliers) > 0 {
		nParts++
	}
	if max >= float64(nParts)*idx.C() {
		t.Fatalf("max key %v outside partition range", max)
	}
}

// The central correctness property: iDistance KNN must return exactly the
// same results as a sequential scan over the same reduced representation
// (same approximate metric), for every query.
func TestKNNMatchesSeqScan(t *testing.T) {
	ds, red := testSetup(t, 800, 12, 3, 92)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scan := index.NewSeqScan(ds, red, nil)
	queries := datagen.SampleQueries(ds, 25, 0.02, 93)
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Point(qi)
		got := idx.KNN(q, 10)
		want := scan.KNN(q, 10)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("query %d rank %d: dist %v vs scan %v", qi, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// Lower-bounding property that justifies the paper's pruning: the reduced
// (projected) distance never exceeds the original-space distance.
func TestProjectionLowerBoundsTrueDistance(t *testing.T) {
	ds, red := testSetup(t, 400, 10, 2, 94)
	queries := datagen.SampleQueries(ds, 10, 0.05, 95)
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Point(qi)
		for _, s := range red.Subspaces {
			qp := s.Project(q)
			for mi, id := range s.Members {
				reduced := matrix.Dist(qp, s.MemberCoords(mi))
				actual := matrix.Dist(q, ds.Point(id))
				if reduced > actual+1e-9 {
					t.Fatalf("reduced %v > actual %v for point %d", reduced, actual, id)
				}
			}
		}
	}
}

func TestKNNKLargerThanN(t *testing.T) {
	ds, red := testSetup(t, 300, 8, 2, 96)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := idx.KNN(ds.Point(0), ds.N+50)
	if len(res) != ds.N {
		t.Fatalf("got %d results, want all %d", len(res), ds.N)
	}
	// At k near or beyond n the fused search's first radius lies beyond
	// every partition sphere.
	scan := index.NewSeqScan(ds, red, nil)
	for _, k := range []int{ds.N - 1, ds.N, ds.N + 50} {
		sameBatchSoloScan(t, "k~n", idx, scan, equivQueries(ds, 6, 73), k)
	}
}

func TestKNNCountsIO(t *testing.T) {
	ds, red := testSetup(t, 800, 12, 3, 97)
	var ctr iostat.Counter
	idx, err := Build(ds, red, Options{Counter: &ctr})
	if err != nil {
		t.Fatal(err)
	}
	build := ctr
	if build.PageWrites == 0 {
		t.Fatal("build counted no writes")
	}
	ctr.Reset()
	idx.KNN(ds.Point(1), 10)
	if ctr.PageReads == 0 || ctr.DistanceOps == 0 {
		t.Fatalf("KNN counted no cost: %+v", ctr)
	}
	// Pruning: a 10-NN search must cost materially less than retrieving
	// everything through the same index.
	small := ctr.PageReads
	ctr.Reset()
	idx.KNN(ds.Point(1), ds.N)
	full := ctr.PageReads
	if small*2 > full {
		t.Fatalf("10-NN read %d pages vs %d for full retrieval — no pruning", small, full)
	}
}

func TestKNNQueryFarOutsideAllPartitions(t *testing.T) {
	ds, red := testSetup(t, 300, 8, 2, 98)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, ds.Dim)
	for i := range q {
		q[i] = 50 // way outside the normalized [0,1] cube
	}
	res := idx.KNN(q, 5)
	if len(res) != 5 {
		t.Fatalf("far query returned %d results", len(res))
	}
	scan := index.NewSeqScan(ds, red, nil)
	want := scan.KNN(q, 5)
	for i := range want {
		if math.Abs(res[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("far query rank %d: %v vs %v", i, res[i].Dist, want[i].Dist)
		}
	}

	// The fused search opens a far query no closer than the gap to the
	// nearest partition sphere, and still answers bitwise like solo.
	qs := [][]float64{q, make([]float64, ds.Dim), append([]float64(nil), ds.Point(3)...)}
	for i := range qs[1] {
		qs[1][i] = -20
	}
	qs[2][0] = 30
	bs := idx.getBatchScratch()
	idx.primeTile(bs, qs)
	for j := range qs {
		gap := math.Inf(1)
		for pi, p := range idx.parts {
			gap = math.Min(gap, bs.dist[pi*batchTile+j]-p.maxRadius)
		}
		if gap <= 0 {
			t.Fatalf("query %d is not outside every partition sphere (gap %v)", j, gap)
		}
		if r0 := idx.firstRadius(bs, j, 5); r0 < gap {
			t.Fatalf("query %d opens at %v, inside the gap %v to the nearest sphere", j, r0, gap)
		}
	}
	idx.putBatchScratch(bs)
	for _, k := range []int{1, 5} {
		sameBatchSoloScan(t, "far", idx, scan, qs, k)
	}
}

func TestKNNWithForcedLowDim(t *testing.T) {
	cfg := datagen.CorrelatedConfig{N: 500, Dim: 16, NumClusters: 2, SDim: 2, VarRatio: 20, Seed: 99}
	ds, _, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	datagen.Normalize(ds)
	red, err := core.New(core.Params{Seed: 99, ForcedDim: 3}).Reduce(ds)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scan := index.NewSeqScan(ds, red, nil)
	q := ds.Point(7)
	got := idx.KNN(q, 10)
	want := scan.KNN(q, 10)
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("rank %d: %v vs %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func BenchmarkIDistanceKNN(b *testing.B) {
	cfg := datagen.CorrelatedConfig{N: 5000, Dim: 32, NumClusters: 4, SDim: 3, VarRatio: 20, Seed: 100}
	ds, _, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	datagen.Normalize(ds)
	red, err := core.New(core.Params{Seed: 100}).Reduce(ds)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := Build(ds, red, Options{})
	if err != nil {
		b.Fatal(err)
	}
	queries := datagen.SampleQueries(ds, 64, 0.02, 101)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.KNN(queries.Point(i%queries.N), 10)
	}
}

func TestKNNApproxConvergesToExact(t *testing.T) {
	ds, red := testSetup(t, 600, 10, 3, 151)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Point(11)
	exact := idx.KNN(q, 10)
	// A generous round budget reproduces the exact answer.
	wide := idx.KNNApprox(q, 10, 1000)
	if len(wide) != len(exact) {
		t.Fatalf("%d vs %d results", len(wide), len(exact))
	}
	for i := range exact {
		if math.Abs(wide[i].Dist-exact[i].Dist) > 1e-12 {
			t.Fatalf("rank %d: %v vs %v", i, wide[i].Dist, exact[i].Dist)
		}
	}
	// A single round never returns better (smaller k-th distance) than
	// exact and may return fewer/farther results.
	one := idx.KNNApprox(q, 10, 1)
	if len(one) > 0 && len(exact) > 0 {
		if one[len(one)-1].Dist < exact[len(exact)-1].Dist-1e-12 && len(one) == len(exact) {
			t.Fatal("bounded search produced a better k-th distance than exact")
		}
	}
}

// Property: across random workload shapes, reducers and query positions,
// iDistance KNN answers are identical to the sequential scan over the same
// reduced representation.
func TestKNNMatchesScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := datagen.CorrelatedConfig{
			N:           150 + r.Intn(400),
			Dim:         4 + r.Intn(12),
			NumClusters: 1 + r.Intn(4),
			SDim:        1 + r.Intn(3),
			VarRatio:    5 + r.Float64()*30,
			ScaleDecay:  0.7 + r.Float64()*0.3,
			Seed:        seed,
		}
		if cfg.SDim > cfg.Dim {
			cfg.SDim = cfg.Dim
		}
		ds, _, err := cfg.Generate()
		if err != nil {
			return false
		}
		datagen.Normalize(ds)
		red, err := core.New(core.Params{Seed: seed, MaxDim: 6}).Reduce(ds)
		if err != nil {
			return false
		}
		idx, err := Build(ds, red, Options{})
		if err != nil {
			return false
		}
		scan := index.NewSeqScan(ds, red, nil)
		k := 1 + r.Intn(15)
		for trial := 0; trial < 3; trial++ {
			q := make([]float64, ds.Dim)
			base := ds.Point(r.Intn(ds.N))
			for j := range q {
				q[j] = base[j] + r.NormFloat64()*0.05
			}
			got := idx.KNN(q, k)
			want := scan.KNN(q, k)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
