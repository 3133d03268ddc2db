package idist

import (
	"errors"
	"time"

	"mmdr/internal/index"
)

// ErrNoQuantizer is returned by the quantized entry points when no trained
// quantizer is attached (SetQuantizer / Options.Quant).
var ErrNoQuantizer = errors.New("idist: no quantizer attached (SetQuantizer or Options.Quant)")

// Quantized KNN: the same iterative radius-enlargement search as the exact
// tile — identical annulus geometry, identical key pruning (keys are exact
// regardless of quantization) — but candidate rows are evaluated by their
// ADC estimate (m table loads per row, see matrix.ADCSum) instead of a
// d-dimensional exact distance, and the candidates accumulate in a flat
// reservoir (see quantReservoir) targeting `budget` entries instead of k.
// When the budget-th estimate falls inside the search sphere or the scan
// quota is spent the loop stops, and the surviving candidates are re-ranked
// with the exact allocation-free kernels over the layout's vector blocks;
// the best k of the re-rank are the answer. Delta rows are exact already
// and join the re-rank directly. The search runs in fusedquant.go: a solo
// query is a tile of one.
//
// The budget is the recall knob: it sizes the candidate reservoir AND
// bounds the scan itself through the quota below, so the candidate set
// grows monotonically with it, reaching the full scan set — and therefore
// the exact answer — when budget >= n. Everything on the path is
// deterministic: estimates are exact sums over trained tables, row order is
// ascending global position, and the early-abandon bound only ever rejects
// rows the reservoir would reject anyway.

// quantScanFactor bounds the quantized scan: the search stops at the end of
// any radius round that has evaluated at least budget*quantScanFactor rows,
// even before the budget-th estimate falls inside the search sphere. The
// exactness proof the exact path runs to completion forces it over every
// annulus row; in the already-reduced space an ADC estimate costs about as
// much as an exact low-dimensional SqDist, so without the quota the
// quantized path would scan the same rows at the same per-row price and
// could never win. The quota is what makes the budget a genuine
// throughput knob: candidate quality degrades gracefully (the scanned
// prefix always covers the exact sphere of the reached radius) and the
// quota is checked at partition boundaries, so a query's scanned set does
// not depend on its tile-mates. With budget >= n the quota can only bind
// once every row is scanned, preserving the bitwise-exact degenerate point.
// The value is tuned at paper scale (n=100k, d=64): budget=130 lands at
// recall@10 ~0.98 (BENCH_approx.json).
const quantScanFactor = 32

// quantDeltaDiv, quantStepRatio and quantStepCap shape the radius schedule
// of the quantized search: the first round grows the annulus by
// deltaR/quantDeltaDiv, and the step then grows by quantStepRatio each
// round up to quantStepCap*deltaR. At the exact path's step a single round
// already scans most of the annulus rows the full proof would, so a
// round-boundary quota would never bind; the geometric ramp keeps early
// rounds small enough that the quota cuts small-budget scans close to
// budget*quantScanFactor rows while adding only O(log quantDeltaDiv)
// rounds of bookkeeping for large budgets. The schedule is fixed
// (independent of budget and of the data seen), so the scanned set stays
// monotone in the budget.
const (
	quantDeltaDiv  = 16.0
	quantStepRatio = 1.5
	quantStepCap   = 0.5
)

// KNNQuantized answers a KNN query through the quantized scan path: ADC
// estimates select the best ~budget candidates (at most 2*budget-1; budget
// < k is raised to k) from a scan capped at budget*quantScanFactor rows,
// and the candidates are re-ranked exactly. Requires an attached quantizer
// (SetQuantizer / Options.Quant). The codes survive writes: rows inserted
// since the last merge are evaluated exactly, and deleted rows never
// become answers.
//
//mmdr:hotpath budget pinned by alloc_test: 1 alloc (the returned slice)
func (idx *Index) KNNQuantized(q []float64, k, budget int) ([]index.Neighbor, error) {
	if idx.quant == nil {
		return nil, ErrNoQuantizer
	}
	if k <= 0 {
		return nil, nil
	}
	if budget < k {
		budget = k
	}
	var qs [1][]float64
	var out [1][]index.Neighbor
	qs[0] = q
	bs := idx.getBatchScratch()
	bs.ensureQuant()
	if idx.ops == nil {
		idx.quantTile(bs, qs[:], k, budget, out[:])
	} else {
		start := time.Now()
		idx.quantTile(bs, qs[:], k, budget, out[:])
		idx.ops.quantKNN.Record(time.Since(start))
	}
	idx.putBatchScratch(bs)
	return out[0], nil
}
