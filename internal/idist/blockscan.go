package idist

import (
	"mmdr/internal/iostat"
	"mmdr/internal/matrix"
)

// Solo block scans over the SoA layout. The solo exact search (knnInto)
// keeps the paper's fixed Δr step, so it scans its own annuli rather than
// running as a tile of one; these helpers convert each annulus to a row
// interval with the same binary searches the fused path uses and stream
// the candidate vectors from the partition's row-major block.
//
// Cost accounting matches the fused kernel path: each binary-search probe
// charges one key comparison (the descent it replaces), each evaluated row
// one DistanceOp, and each leaf the interval spans one page read + node
// access per scan. Everything is charged to the scratch's Sink, which the
// slow-query capture's re-run leaves nil.

// rowBounds converts the key annulus [lo, hi] (edges excluded per the
// flags) into the half-open row interval [a, b) of a partition's key span.
// An inclusive low edge is the first key >= lo, an exclusive low edge the
// first key > lo, and symmetrically for the high edge.
//
//mmdr:hotpath
func rowBounds(ctr iostat.Sink, keys []float64, lo, hi float64, exLo, exHi bool) (int, int) {
	a := searchKeys(ctr, keys, lo, exLo)
	b := a + searchKeys(ctr, keys[a:], hi, !exHi)
	return a, b
}

// chargeLeafSpan counts each leaf the row interval [a, b) of the partition
// starting at global position ps touches, once per scan — the physical I/O
// of one contiguous block pass.
//
//mmdr:hotpath
func (idx *Index) chargeLeafSpan(ctr iostat.Sink, ps, a, b int) int {
	if a >= b {
		return 0
	}
	lay := idx.layout
	leaves := int(lay.leafOf[ps+b-1]-lay.leafOf[ps+a]) + 1
	if ctr != nil {
		ctr.CountPageReads(int64(leaves))
		ctr.CountNodeAccesses(int64(leaves))
	}
	return leaves
}

// scanBlockKNN evaluates the annulus rows of partition pi against the
// running top-k, in ascending global position — the order the tree cursor
// visits the same keys. Returns the leaves spanned.
//
//mmdr:hotpath
func (idx *Index) scanBlockKNN(sc *queryScratch, pi int, lo, hi float64, exLo, exHi bool) int {
	lay := idx.layout
	ps, pe := lay.partStart[pi], lay.partStart[pi+1]
	a, b := rowBounds(sc.counter, lay.keys[ps:pe], lo, hi, exLo, exHi)
	if a >= b {
		return 0
	}
	d := lay.dims[pi]
	sc.evalRows(lay.vecs[pi][a*d:b*d], lay.rids[ps+a:ps+b])
	return idx.chargeLeafSpan(sc.counter, ps, a, b)
}

// evalRows scores the row-major vectors of block, whose record IDs are
// rids, against the solo query's running top-k in squared distance, and
// charges one DistanceOp per row. Block scans and the delta share it. The
// current k-th squared distance bounds the inner loop: a partial sum
// already above it proves the candidate cannot enter the heap, so the loop
// abandons early (candidates that survive get their exact, bit-identical
// squared distance — see matrix.SqDistEarlyAbandon).
//
//mmdr:hotpath innermost solo KNN row loop
func (sc *queryScratch) evalRows(block []float64, rids []uint32) {
	x := sc.x
	d := len(x)
	top := sc.top
	row := 0
	if sc.abandon {
		for _, rid := range rids {
			v := block[row : row+d : row+d]
			row += d
			top.Add(int(rid), matrix.SqDistEarlyAbandon(x, v, top.Kth()))
		}
	} else {
		for _, rid := range rids {
			v := block[row : row+d : row+d]
			row += d
			top.Add(int(rid), matrix.SqDist(x, v))
		}
	}
	if sc.counter != nil {
		sc.counter.CountDistanceOps(int64(len(rids)))
	}
	sc.cand += len(rids)
}
