package idist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mmdr/internal/core"
	"mmdr/internal/datagen"
	"mmdr/internal/index"
	"mmdr/internal/matrix"
	"mmdr/internal/quant"
)

// Kernel-width lockdown. The layout row scans dispatch on the row width:
// matrix.SqDistToRows has its own fixed-width loop for every d up to 8 and
// a per-row SqDist above, and from matrix.EarlyAbandonMinLen the scans keep
// the per-row early-abandon loop. The quantized scans dispatch on the code
// width the same way (matrix.ADCToRows below matrix.ADCAbandonMinBlocks).
// At every reduced dimensionality from 1 to 9, and at 16, an index with an
// outlier partition (full-dimensional rows), a quantizer, and delta rows
// and tombstones pending must answer KNN, BatchKNN, Range, BatchRange and
// full-budget KNNQuantized bitwise as the sequential scan does over the
// live points.
func TestEveryKernelWidthMatchesSeqScan(t *testing.T) {
	const dim = 32
	cfg := datagen.CorrelatedConfig{N: 500, Dim: dim, NumClusters: 3, SDim: 2, VarRatio: 20, Seed: 29}
	base, _, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	datagen.Normalize(base)
	// Uniform noise no subspace represents: the outlier partition. More
	// noise points than the widest subspace has dimensions, so no subspace
	// can hold them all.
	noise := rand.New(rand.NewSource(29))
	for i := 0; i < 40; i++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = 2 * noise.Float64()
		}
		base.Append(p)
	}
	for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
		t.Run(fmt.Sprintf("d=%d", w), func(t *testing.T) {
			ds := base.Clone()
			red, err := core.New(core.Params{Seed: 29, MaxEC: 4, ForcedDim: w}).Reduce(ds)
			if err != nil {
				t.Fatal(err)
			}
			if len(red.Subspaces) == 0 || len(red.Outliers) == 0 {
				t.Fatalf("%d subspaces, %d outliers: want both", len(red.Subspaces), len(red.Outliers))
			}
			for _, s := range red.Subspaces {
				if s.Dr != w {
					t.Fatalf("subspace of dimensionality %d, want %d", s.Dr, w)
				}
			}
			// Code widths vary with w, so the subspaces see m = 1..6 and the
			// outlier partition m = 1..8 across the table.
			set, err := quant.TrainSet(ds, red, quant.Config{Blocks: 1 + (3*w)%8, Bits: 4, Seed: 29})
			if err != nil {
				t.Fatal(err)
			}
			idx, err := Build(ds, red, Options{Quant: set})
			if err != nil {
				t.Fatal(err)
			}
			scan := index.NewSeqScan(ds, red, nil)

			// Cross one merge, then leave inserts and deletes pending.
			rng := rand.New(rand.NewSource(int64(100 + w)))
			dead := map[int]bool{}
			next := 0
			write := func() {
				if rng.Intn(2) == 0 {
					if _, err := idx.Insert(writePoint(rng, ds)); err != nil {
						t.Fatal(err)
					}
					return
				}
				for dead[next] {
					next++
				}
				if !idx.Delete(next) {
					t.Fatalf("Delete(%d) found nothing", next)
				}
				dead[next] = true
				next += 7
			}
			for lay := idx.layout; idx.layout == lay; {
				write()
			}
			for i := 0; i < 6; i++ {
				write()
			}
			lay := idx.layout
			delta := 0
			for _, rids := range lay.drids {
				delta += len(rids)
			}
			if delta == 0 || delta == lay.pending {
				t.Fatalf("%d writes pending with %d delta rows: want inserts and deletes both pending", lay.pending, delta)
			}

			qs := make([][]float64, 6)
			for i := range qs {
				qs[i] = writePoint(rng, ds)
			}
			for _, k := range []int{1, 10, 40} {
				batch := idx.BatchKNN(qs, k, 2)
				for i, q := range qs {
					want := liveKNN(scan, q, k, dead)
					sameNeighbors(t, fmt.Sprintf("knn k=%d q%d", k, i), idx.KNN(q, k), want)
					sameNeighbors(t, fmt.Sprintf("batch k=%d q%d", k, i), batch[i], want)
					full, err := idx.KNNQuantized(q, k, ds.N)
					if err != nil {
						t.Fatal(err)
					}
					sameNeighbors(t, fmt.Sprintf("quantized k=%d q%d", k, i), full, want)
				}
			}
			for _, r := range []float64{0.1, 0.4} {
				batch := idx.BatchRange(qs, r, 2)
				for i, q := range qs {
					want := liveRange(scan, q, r, dead)
					sameNeighbors(t, fmt.Sprintf("range r=%v q%d", r, i), idx.Range(q, r), want)
					sameNeighbors(t, fmt.Sprintf("batch range r=%v q%d", r, i), batch[i], want)
				}
			}
		})
	}
}

// The four row scans must offer their top-k or reservoir exactly what a
// per-row loop over SqDist/ADCSum offers, in the same order, across row
// counts that end inside, at and past a chunk boundary, at every width the
// dispatch distinguishes (the fixed-width kernels, the per-row kernel
// above them, the early-abandon loop from matrix.EarlyAbandonMinLen). The
// coordinates take few values, so distances tie and the top-k breaks ties
// by record ID, and some rows are tombstones (+Inf). A small reservoir
// compacts during the scan, moving its bound; a large one never does.
func TestRowScansMatchPerRowLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var chunk [rowChunk]float64
	val := func() float64 { return float64(rng.Intn(4)) / 2 }
	for _, n := range []int{0, 1, rowChunk - 1, rowChunk, rowChunk + 1, 3*rowChunk + 17} {
		rids := make([]uint32, n)
		for i, r := range rng.Perm(n) {
			rids[i] = uint32(r)
		}
		for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 20} {
			q := make([]float64, d)
			for i := range q {
				q[i] = val()
			}
			block := make([]float64, n*d)
			for i := range block {
				block[i] = val()
			}
			for i := 0; i < n; i += 11 {
				for j := range block[i*d : (i+1)*d] {
					block[i*d+j] = math.Inf(1)
				}
			}
			label := fmt.Sprintf("n=%d d=%d", n, d)
			for _, k := range []int{1, 10} {
				got, want := index.NewTopK(k), index.NewTopK(k)
				knnRows(got, q, block, rids, &chunk)
				for i, rid := range rids {
					want.Add(int(rid), matrix.SqDist(q, block[i*d:(i+1)*d]))
				}
				sameNeighbors(t, fmt.Sprintf("knnRows %s k=%d", label, k), got.Sorted(), want.Sorted())
			}
			r2 := float64(d) / 4
			var want []index.Neighbor
			for i, rid := range rids {
				if s := matrix.SqDist(q, block[i*d:(i+1)*d]); s <= r2 {
					want = append(want, index.Neighbor{ID: int(rid), Dist: s})
				}
			}
			sameNeighbors(t, "rangeRows "+label, rangeRows(nil, q, block, rids, r2, &chunk), want)
			for _, budget := range []int{4, n + 1} {
				var got, want quantReservoir
				got.Reset(budget)
				want.Reset(budget)
				estRows(&got, q, block, 7, n, &chunk)
				for i := 0; i < n; i++ {
					want.Add(7+i, matrix.SqDist(q, block[i*d:(i+1)*d]))
				}
				sameNeighbors(t, fmt.Sprintf("estRows %s budget=%d", label, budget), got.Items(), want.Items())
			}
		}
		for m := 1; m <= 6; m++ {
			const kc = 8
			table := make([]float64, m*kc)
			for i := range table {
				table[i] = val()
			}
			codes := make([]byte, n*m)
			for i := range codes {
				codes[i] = byte(rng.Intn(kc))
			}
			for _, budget := range []int{4, n + 1} {
				var got, want quantReservoir
				got.Reset(budget)
				want.Reset(budget)
				codeRows(&got, table, kc, codes, m, 7, &chunk)
				for i := 0; i < n; i++ {
					want.Add(7+i, matrix.ADCSum(table, kc, codes[i*m:(i+1)*m]))
				}
				sameNeighbors(t, fmt.Sprintf("codeRows n=%d m=%d budget=%d", n, m, budget), got.Items(), want.Items())
			}
		}
	}
}
