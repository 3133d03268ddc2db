package idist

import (
	"errors"
	"math"
	"time"

	"mmdr/internal/index"
	"mmdr/internal/matrix"
)

// ErrNoQuantizer is returned by the quantized entry points when no trained
// quantizer is attached (SetQuantizer / Options.Quant).
var ErrNoQuantizer = errors.New("idist: no quantizer attached (SetQuantizer or Options.Quant)")

// Quantized KNN: the same iterative radius-enlargement search as knnInto —
// identical annulus geometry, identical key pruning (keys are exact
// regardless of quantization) — but candidate rows are evaluated by their
// ADC estimate (m table loads per row, see matrix.ADCSum) instead of a
// d-dimensional exact distance, and the candidates accumulate in a flat
// reservoir (see quantReservoir) targeting `budget` entries instead of k.
// When the budget-th estimate falls inside the search sphere or the scan
// quota is spent the loop stops, and the surviving candidates are re-ranked
// with the exact allocation-free kernels over the layout's vector blocks;
// the best k of the re-rank are the answer.
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
// quota is checked at partition boundaries, so the scanned set is identical
// in the solo and fused paths. With budget >= n the quota can only bind
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
// monotone in the budget and identical between the solo and fused paths.
const (
	quantDeltaDiv  = 16.0
	quantStepRatio = 1.5
	quantStepCap   = 0.5
)

// quantScratch bundles the per-query state of the quantized path: the
// per-partition search states shared with the exact path, one lazily built
// ADC table per partition, and the two accumulators (estimate reservoir
// keyed by global layout position, exact re-rank heap keyed by record ID).
// Pooled on the index so a quantized query allocates only its result slice.
type quantScratch struct {
	idx     *Index
	states  []queryState
	projBuf []float64

	est *quantReservoir // ADC estimates, IDs are global layout positions
	top *index.TopK     // exact re-rank accumulator, IDs are record IDs

	tables []float64 // per-partition ADC tables, carved at tabOff
	tabOff []int     // len nParts+1; equal offsets = partition has no codebook
	built  []bool    // table built for this query yet

	scanned int // rows evaluated so far, against the scan quota

	q []float64 // original-space query (outlier partitions)
}

// getQuantScratch returns a pooled, correctly sized quantized scratch. Pair
// with putQuantScratch.
func (idx *Index) getQuantScratch() *quantScratch {
	qs, _ := idx.quantPool.Get().(*quantScratch)
	if qs == nil {
		qs = &quantScratch{idx: idx, est: new(quantReservoir), top: index.NewTopK(0)}
	}
	qs.ensure()
	return qs
}

// putQuantScratch returns a scratch to the pool, dropping query references.
func (idx *Index) putQuantScratch(qs *quantScratch) {
	qs.q = nil
	idx.quantPool.Put(qs)
}

// ensure sizes the per-partition state, projection views and ADC table
// arena for the index's current partitions and codebooks.
func (qs *quantScratch) ensure() {
	idx := qs.idx
	n := len(idx.parts)
	if cap(qs.states) < n {
		qs.states = make([]queryState, n)
	}
	qs.states = qs.states[:n]
	sumDr := 0
	for pi := range idx.parts {
		if s := idx.parts[pi].sub; s != nil {
			sumDr += s.Dr
		}
	}
	if cap(qs.projBuf) < sumDr {
		qs.projBuf = make([]float64, sumDr)
	}
	off := 0
	for pi := range idx.parts {
		st := &qs.states[pi]
		if s := idx.parts[pi].sub; s != nil {
			st.proj = qs.projBuf[off : off+s.Dr]
			off += s.Dr
		} else {
			st.proj = nil
		}
	}
	if cap(qs.tabOff) < n+1 {
		qs.tabOff = make([]int, n+1)
		qs.built = make([]bool, n)
	}
	qs.tabOff = qs.tabOff[:n+1]
	qs.built = qs.built[:n]
	tab := 0
	set := idx.quant
	for pi := 0; pi < n; pi++ {
		qs.tabOff[pi] = tab
		if set != nil && pi < len(set.Books) && set.Books[pi] != nil {
			tab += set.Books[pi].TableLen()
		}
	}
	qs.tabOff[n] = tab
	if cap(qs.tables) < tab {
		qs.tables = make([]float64, tab)
	}
	qs.tables = qs.tables[:tab]
}

// KNNQuantized answers a KNN query through the quantized scan path: ADC
// estimates select the best ~budget candidates (at most 2*budget-1; budget
// < k is raised to k) from a scan capped at budget*quantScanFactor rows,
// and the candidates are re-ranked exactly. Requires an attached quantizer
// (SetQuantizer / Options.Quant); with the layout dropped by a dynamic
// Insert/Delete the search transparently falls back to the exact path
// (codes live in the layout), so callers never observe missing answers
// mid-update — call RebuildLayout to restore the fast path.
//
//mmdr:hotpath budget pinned by alloc_test: 1 alloc (the returned slice)
func (idx *Index) KNNQuantized(q []float64, k, budget int) ([]index.Neighbor, error) {
	if idx.quant == nil {
		return nil, ErrNoQuantizer
	}
	if k <= 0 {
		return nil, nil
	}
	if idx.layout == nil || idx.layout.codes == nil {
		return idx.KNN(q, k), nil
	}
	if budget < k {
		budget = k
	}
	if idx.ops == nil {
		return idx.knnQuantized(q, k, budget), nil
	}
	start := time.Now()
	out := idx.knnQuantized(q, k, budget)
	idx.ops.quantKNN.Record(time.Since(start))
	return out, nil
}

//mmdr:hotpath
func (idx *Index) knnQuantized(q []float64, k, budget int) []index.Neighbor {
	qs := idx.getQuantScratch()
	defer idx.putQuantScratch(qs)
	return idx.knnQuantizedInto(qs, q, k, budget)
}

// knnQuantizedInto runs the quantized radius-enlargement search using qs's
// buffers. Structure mirrors knnInto; see the file comment for the
// estimate/re-rank split.
//
//mmdr:hotpath
func (idx *Index) knnQuantizedInto(qs *quantScratch, q []float64, k, budget int) []index.Neighbor {
	// Clamp the reservoir's compaction target to the row count: a
	// budget >= n reservoir then never fills, its bound stays +Inf, and
	// every scanned row is kept — the bitwise-exact degenerate point.
	resK := budget
	if nRows := idx.layout.partStart[len(idx.parts)]; resK > nRows {
		resK = nRows
	}
	qs.est.Reset(resK)
	qs.q = q
	qs.scanned = 0
	quota := budget * quantScanFactor
	if quota/quantScanFactor != budget { // overflow: quota can never bind
		quota = int(^uint(0) >> 1)
	}
	states := qs.states
	for pi := range idx.parts {
		p := &idx.parts[pi]
		st := &states[pi]
		if p.sub != nil {
			p.sub.ProjectInto(q, st.proj)
			st.dist = math.Sqrt(matrix.SqNorm(st.proj))
		} else {
			st.dist = matrix.Dist(q, p.centroid)
		}
		st.scanLo, st.scanHi = math.Inf(1), math.Inf(-1)
		st.exhausted = false
		qs.built[pi] = false
	}

	step := idx.deltaR / quantDeltaDiv
	r := step
	for {
		allDone := true
		for pi := range idx.parts {
			// Partition-boundary quota check: the fused path walks partitions
			// in the same ascending order with the same per-partition row
			// counts, so cutting here keeps the scanned sets bitwise equal
			// while bounding the quota overshoot to one partition's annulus
			// increment instead of a whole round's.
			if qs.scanned >= quota {
				break
			}
			p := &idx.parts[pi]
			st := &states[pi]
			if st.exhausted {
				continue
			}
			lo := st.dist - r
			if lo < 0 {
				lo = 0
			}
			hi := st.dist + r
			if hi > p.maxRadius {
				hi = p.maxRadius
			}
			if lo > hi {
				if st.dist-r > p.maxRadius {
					allDone = false
				}
				continue
			}
			base := float64(pi) * idx.c
			if st.scanLo > st.scanHi {
				idx.quantScanRange(qs, pi, base+lo, base+hi, false, false)
				st.scanLo, st.scanHi = lo, hi
			} else {
				if lo < st.scanLo {
					idx.quantScanRange(qs, pi, base+lo, base+st.scanLo, false, true)
					st.scanLo = lo
				}
				if hi > st.scanHi {
					idx.quantScanRange(qs, pi, base+st.scanHi, base+hi, true, false)
					st.scanHi = hi
				}
			}
			if st.scanLo <= 0 && st.scanHi >= p.maxRadius {
				st.exhausted = true
			} else {
				allDone = false
			}
		}
		// Stop when the budget-th ESTIMATE is within the sphere (every row
		// whose estimate could displace a kept candidate has been seen) or
		// when the scan quota is spent — whichever comes first. Larger
		// budgets scan strictly more rows under both rules — the recall
		// knob — and an unbounded budget degenerates to the full scan.
		if qs.est.Len() >= budget && qs.est.Kth() <= r*r {
			break
		}
		if qs.scanned >= quota {
			break
		}
		if allDone {
			break
		}
		if step *= quantStepRatio; step > idx.deltaR*quantStepCap {
			step = idx.deltaR * quantStepCap
		}
		r += step
	}
	return idx.rerank(qs.est.Items(), states, q, k, qs.top)
}

// quantScanRange scans the annulus rows of partition pi, adding each row's
// ADC estimate (keyed by global layout position) to the reservoir. A
// partition without a code block — one the quantizer predates — contributes
// exact squared distances instead, which are their own estimates. Accounting
// matches scanBlockKNN: one DistanceOp per row, pages once per spanned leaf,
// key compares per search probe.
//
//mmdr:hotpath innermost quantized annulus scan
func (idx *Index) quantScanRange(qs *quantScratch, pi int, lo, hi float64, exLo, exHi bool) {
	lay := idx.layout
	ps, pe := lay.partStart[pi], lay.partStart[pi+1]
	a, b := idx.rowBounds(lay.keys[ps:pe], lo, hi, exLo, exHi)
	if a >= b {
		return
	}
	qs.scanned += b - a
	est := qs.est
	st := &qs.states[pi]
	if codes := lay.codes[pi]; codes != nil {
		cb := idx.quant.Books[pi]
		table := qs.tables[qs.tabOff[pi]:qs.tabOff[pi+1]]
		if !qs.built[pi] {
			// Lazy per-partition table: built on the partition's first scan
			// of this query, so partitions the sphere never reaches cost
			// nothing.
			x := qs.q
			if st.proj != nil {
				x = st.proj
			}
			cb.ADCTableInto(x, table)
			qs.built[pi] = true
		}
		m, kc := cb.M, cb.K
		off := a * m
		// The reservoir bound moves only on compaction; refreshing it after
		// an accepted Add keeps the ADC early-abandon as tight as it gets
		// while rejected rows skip the call entirely.
		kth := est.Kth()
		for p := a; p < b; p++ {
			code := codes[off : off+m : off+m]
			off += m
			if s := matrix.ADCSumBound(table, kc, code, kth); s < kth {
				est.Add(ps+p, s)
				kth = est.Kth()
			}
		}
	} else {
		d := lay.dims[pi]
		block := lay.vecs[pi]
		x := qs.q
		if st.proj != nil {
			x = st.proj
		}
		abandon := d >= matrix.EarlyAbandonMinLen
		row := a * d
		for p := a; p < b; p++ {
			v := block[row : row+d : row+d]
			row += d
			if abandon {
				est.Add(ps+p, matrix.SqDistEarlyAbandon(x, v, est.Kth()))
			} else {
				est.Add(ps+p, matrix.SqDist(x, v))
			}
		}
	}
	if idx.counter != nil {
		idx.counter.CountDistanceOps(int64(b - a))
	}
	idx.chargeLeafSpan(ps, a, b)
}

// rerank evaluates the surviving candidates exactly — the same kernels,
// bounds and accumulation as the exact search — and materializes the best k
// as the result (the path's single allocation). cands holds global layout
// positions; states supplies the per-partition query-side vectors (proj for
// subspaces, q itself for outliers).
//
//mmdr:hotpath exact re-rank of the quantized candidate set
func (idx *Index) rerank(cands []index.Neighbor, states []queryState, q []float64, k int, top *index.TopK) []index.Neighbor {
	lay := idx.layout
	top.Reset(k)
	for _, nb := range cands {
		p := nb.ID
		// Candidates are few (the budget); the partition count is tiny, so a
		// linear walk over the span starts beats binary search bookkeeping.
		pi := 0
		for lay.partStart[pi+1] <= p {
			pi++
		}
		d := lay.dims[pi]
		row := p - lay.partStart[pi]
		v := lay.vecs[pi][row*d : (row+1)*d : (row+1)*d]
		x := q
		if st := &states[pi]; st.proj != nil {
			x = st.proj
		}
		var dSq float64
		if d >= matrix.EarlyAbandonMinLen {
			dSq = matrix.SqDistEarlyAbandon(x, v, top.Kth())
		} else {
			dSq = matrix.SqDist(x, v)
		}
		top.Add(int(lay.rids[p]), dSq)
	}
	if idx.counter != nil && len(cands) > 0 {
		idx.counter.CountDistanceOps(int64(len(cands)))
	}
	out := top.Sorted()
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	return out
}
