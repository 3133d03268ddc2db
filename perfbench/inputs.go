package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"mmdr"
	"mmdr/internal/datagen"
	"mmdr/internal/dataset"
	"mmdr/internal/matrix"
)

// collectionSeed fixes the indexed collection and its held-out pool, the
// way a real dataset with a held-out query split is fixed. The workload
// seed draws everything else from it. Letting the seed regenerate the
// collection itself makes MMDR find a different model on every seed (8 or
// 9 subspaces, 1 to 500 outliers), which moved batch throughput by more
// than 2x between seeds and would drown any change under test.
const collectionSeed = 20030305

// k is the neighbour count of every KNN request.
const k = 10

// batchSize is the query count of one batch-* call.
const batchSize = 64

// scale sizes one run's inputs.
type scale struct {
	n, dim      int // indexed collection
	pool        int // held-out points generated with the collection, never indexed
	queries     int // held-out queries drawn per run (a multiple of batchSize)
	probe       int // leading queries the HTTP gates and the layer sweep use
	inserts     int // held-out insert points drawn per run
	deletes     int // distinct base ids drawn per run for deletion
	setupReps   int // setup repetitions; setup_s and mem_mb are their medians
	rate        float64
	serveWrites int // Server.Insert and Server.Delete calls each in the layer sweep
}

// scales: paper is the paper's n=100k, d=64 scale the benchmark runs at;
// tiny keeps the benchmark's own tests fast.
var scales = map[string]scale{
	"paper": {n: 100000, dim: 64, pool: 16384, queries: 4096, probe: 1024, inserts: 512, deletes: 512, setupReps: 3, rate: 200, serveWrites: 256},
	"tiny":  {n: 3000, dim: 16, pool: 1024, queries: 128, probe: 128, inserts: 512, deletes: 512, setupReps: 2, rate: 200, serveWrites: 16},
}

// inputs are one run's generated inputs. The system under test receives
// only these.
type inputs struct {
	dim     int
	base    []float64 // n×dim indexed points, row-major
	queries []float64 // held-out query points, row-major
	inserts []float64 // held-out insert points, row-major
	deletes []int     // distinct base ids
	// burst holds the held-out points direct-write bursts insert: the last
	// inserts rows of the pool, the same for every seed. An insert's cost
	// depends on how many subspaces the point falls near, and a seeded
	// sample of points moved the bursts' median between runs by 60%.
	burst []float64
}

// generate builds the collection — datagen.CorrelatedConfig configured as
// the experiments' synthetic workload (5 rotated clusters, 3 remained
// dimensions, variance ratio 25, scale decay 0.75, min-max normalized) —
// and draws the run's held-out queries and insert points and its delete
// ids with the workload seed.
func generate(sc scale, seed int64) (*inputs, error) {
	cfg := datagen.CorrelatedConfig{N: sc.n + sc.pool, Dim: sc.dim, NumClusters: 5, SDim: 3,
		VarRatio: 25, ScaleDecay: 0.75, Seed: collectionSeed}
	all, _, err := cfg.Generate()
	if err != nil {
		return nil, fmt.Errorf("generating collection: %w", err)
	}
	datagen.Normalize(all)
	if sc.queries+sc.inserts > sc.pool || sc.deletes > sc.n {
		return nil, fmt.Errorf("scale draws more points than it generates")
	}
	in := &inputs{dim: sc.dim, base: append([]float64(nil), all.Data[:sc.n*sc.dim]...)}
	rng := rand.New(rand.NewSource(seed))
	held := rng.Perm(sc.pool)
	row := func(i int) []float64 { return all.Point(sc.n + i) }
	for _, i := range held[:sc.queries] {
		in.queries = append(in.queries, row(i)...)
	}
	for _, i := range held[sc.queries : sc.queries+sc.inserts] {
		in.inserts = append(in.inserts, row(i)...)
	}
	in.deletes = rng.Perm(sc.n)[:sc.deletes]
	in.burst = append([]float64(nil), all.Data[(sc.n+sc.pool-sc.inserts)*sc.dim:]...)
	return in, nil
}

// dataset returns a fresh copy of the indexed collection. Each model gets
// its own: Insert appends to the model's dataset, and the reference models
// the gates use must not see the system's writes.
func (in *inputs) dataset() *dataset.Dataset {
	ds, err := dataset.FromData(in.dim, append([]float64(nil), in.base...))
	if err != nil {
		panic(err) // base is n×dim by construction
	}
	return ds
}

func (in *inputs) numQueries() int { return len(in.queries) / in.dim }

func (in *inputs) query(i int) []float64 { return in.queries[i*in.dim : (i+1)*in.dim] }

func (in *inputs) insertPoint(i int) []float64 { return in.inserts[i*in.dim : (i+1)*in.dim] }

// burstPoint cycles through the burst points.
func (in *inputs) burstPoint(i int) []float64 {
	i %= len(in.burst) / in.dim
	return in.burst[i*in.dim : (i+1)*in.dim]
}

// slice returns batch s of the query set (batchSize consecutive queries).
func (in *inputs) slice(s int) []float64 {
	return in.queries[s*batchSize*in.dim : (s+1)*batchSize*in.dim]
}

// truth computes every query's exact k nearest neighbour ids in the
// original space: R_d of the paper's precision. It fans the queries out
// over the available cores; it is never timed.
func (in *inputs) truth() [][]int {
	ts := newTruthScan(in.base, in.dim)
	nq := in.numQueries()
	out := make([][]int, nq)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi := w; qi < nq; qi += workers {
				out[qi] = ts.knn(in.query(qi))
			}
		}(w)
	}
	wg.Wait()
	return out
}

// truthScan is an exact brute-force KNN over the base rows, pruned by one
// projection. Rows are sorted by their projection onto an approximate
// principal axis u of the collection; for a unit u, |q·u − p·u| ≤ |q − p|,
// so a scan outward from q's position stops once the projection gap alone
// exceeds the k-th best distance. Rows inside the gap are compared in
// full (with early abandoning), so the answer is exact.
type truthScan struct {
	dim  int
	u    []float64
	keys []float64 // ascending projections
	ids  []int     // row id at each sorted position
	rows []float64 // rows in sorted order, row-major
}

// axisIters is the power-iteration count for u. Any unit vector keeps the
// scan exact; a better axis only prunes more.
const axisIters = 8

func newTruthScan(base []float64, dim int) *truthScan {
	n := len(base) / dim
	mean := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j, v := range base[i*dim : (i+1)*dim] {
			mean[j] += v / float64(n)
		}
	}
	u := make([]float64, dim)
	for j := range u {
		u[j] = 1 / math.Sqrt(float64(dim))
	}
	c := make([]float64, dim)
	for it := 0; it < axisIters; it++ {
		next := make([]float64, dim)
		for i := 0; i < n; i++ {
			var s float64
			for j, v := range base[i*dim : (i+1)*dim] {
				c[j] = v - mean[j]
				s += c[j] * u[j]
			}
			for j := range next {
				next[j] += s * c[j]
			}
		}
		norm := math.Sqrt(matrix.SqNorm(next))
		for j := range next {
			next[j] /= norm
		}
		u = next
	}
	ts := &truthScan{dim: dim, u: u, keys: make([]float64, n), ids: make([]int, n), rows: make([]float64, 0, len(base))}
	proj := make([]float64, n)
	for i := range proj {
		proj[i] = matrix.DotUnroll4(base[i*dim:(i+1)*dim], u)
		ts.ids[i] = i
	}
	sort.Slice(ts.ids, func(a, b int) bool { return proj[ts.ids[a]] < proj[ts.ids[b]] })
	for i, id := range ts.ids {
		ts.keys[i] = proj[id]
		ts.rows = append(ts.rows, base[id*dim:(id+1)*dim]...)
	}
	return ts
}

// knn returns the ids of q's k nearest base rows by squared L2.
func (ts *truthScan) knn(q []float64) []int {
	type cand struct {
		d  float64
		id int
	}
	top := make([]cand, 0, k+1)
	bound := math.Inf(1) // k-th best squared distance once k rows are held
	qk := matrix.DotUnroll4(q, ts.u)
	hi := sort.SearchFloat64s(ts.keys, qk)
	lo := hi - 1
	for lo >= 0 || hi < len(ts.keys) {
		// Visit the side with the smaller projection gap. Once even that
		// gap exceeds the bound, every row left is farther.
		var i int
		if hi >= len(ts.keys) || (lo >= 0 && qk-ts.keys[lo] <= ts.keys[hi]-qk) {
			i, lo = lo, lo-1
		} else {
			i, hi = hi, hi+1
		}
		// The slack keeps projection rounding from pruning a row whose
		// true distance ties the bound.
		if gap := ts.keys[i] - qk; gap*gap > bound*(1+1e-9) {
			break
		}
		d := matrix.SqDistEarlyAbandon(q, ts.rows[i*ts.dim:(i+1)*ts.dim], bound)
		if d >= bound {
			continue
		}
		j := sort.Search(len(top), func(j int) bool { return top[j].d > d })
		top = append(top, cand{})
		copy(top[j+1:], top[j:])
		top[j] = cand{d, ts.ids[i]}
		if len(top) > k {
			top = top[:k]
		}
		if len(top) == k {
			bound = top[k-1].d
		}
	}
	ids := make([]int, len(top))
	for i, c := range top {
		ids[i] = c.id
	}
	return ids
}

// recall is the share of truth's ids that answer contains.
func recall(answer []mmdr.Neighbor, truth []int) float64 {
	in := make(map[int]bool, len(truth))
	for _, id := range truth {
		in[id] = true
	}
	hit := 0
	for _, nb := range answer {
		if in[nb.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// meanRecall averages recall over a query set's answers.
func meanRecall(answers [][]mmdr.Neighbor, truth [][]int) float64 {
	var sum float64
	for i, a := range answers {
		sum += recall(a, truth[i])
	}
	return sum / float64(len(answers))
}
