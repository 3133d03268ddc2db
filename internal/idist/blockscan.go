package idist

import (
	"mmdr/internal/index"
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
// rids, against the solo query's running top-k in squared distance
// (knnRows), and charges one DistanceOp per row. Block scans and the delta
// share it.
//
//mmdr:hotpath solo KNN row scan
func (sc *queryScratch) evalRows(block []float64, rids []uint32) {
	knnRows(sc.top, sc.x, block, rids, &sc.chunk)
	if sc.counter != nil {
		sc.counter.CountDistanceOps(int64(len(rids)))
	}
	sc.cand += len(rids)
}

// Row scans. Every loop over layout rows — the solo and fused KNN scans,
// Range, the quantized estimates — runs one of the four below. Below
// matrix.EarlyAbandonMinLen (and for codes below
// matrix.ADCAbandonMinBlocks) a scan fills a chunk of up to rowChunk scores
// with one fixed-width kernel call (matrix.SqDistToRows, matrix.ADCToRows)
// and then runs a plain accept loop over the chunk: the kernel is the
// per-row SqDist/ADCSum arithmetic, so every score, and with it every
// answer, is bit for bit what a per-row loop computes. Wider rows keep the
// per-row early-abandon loop bounded by the live threshold.

// rowChunk is the number of rows a row scan scores per kernel call. The
// chunk buffer is a fixed-size array in the scratch, so no scan allocates.
const rowChunk = 128

// knnRows offers the rows of block — row-major, len(q) wide, record IDs
// rids — to top in squared distance. A chunked row is skipped when its
// score exceeds the current k-th: Add would reject it, and the k-th moves
// only when Add accepts, so it is refreshed only after an Add.
//
//mmdr:hotpath innermost exact KNN row loop, solo and fused
func knnRows(top *index.TopK, q, block []float64, rids []uint32, chunk *[rowChunk]float64) {
	d := len(q)
	if d >= matrix.EarlyAbandonMinLen {
		row := 0
		for _, rid := range rids {
			v := block[row : row+d : row+d]
			row += d
			top.Add(int(rid), matrix.SqDistEarlyAbandon(q, v, top.Kth()))
		}
		return
	}
	kth := top.Kth()
	for len(rids) > 0 {
		n := min(len(rids), rowChunk)
		scores := chunk[:n]
		matrix.SqDistToRows(q, block[:n*d], scores)
		for i, s := range scores {
			if s > kth {
				continue
			}
			top.Add(int(rids[i]), s)
			kth = top.Kth()
		}
		rids = rids[n:]
		block = block[n*d:]
	}
}

// rangeRows appends to buf every row of block (laid out as for knnRows)
// whose squared distance to q is at most r2, and returns the grown buffer.
//
//mmdr:hotpath innermost Range row loop
func rangeRows(buf []index.Neighbor, q, block []float64, rids []uint32, r2 float64, chunk *[rowChunk]float64) []index.Neighbor {
	d := len(q)
	if d >= matrix.EarlyAbandonMinLen {
		row := 0
		for _, rid := range rids {
			v := block[row : row+d : row+d]
			row += d
			if s := matrix.SqDistEarlyAbandon(q, v, r2); s <= r2 {
				buf = append(buf, index.Neighbor{ID: int(rid), Dist: s})
			}
		}
		return buf
	}
	for len(rids) > 0 {
		n := min(len(rids), rowChunk)
		scores := chunk[:n]
		matrix.SqDistToRows(q, block[:n*d], scores)
		for i, s := range scores {
			if s <= r2 {
				buf = append(buf, index.Neighbor{ID: int(rids[i]), Dist: s})
			}
		}
		rids = rids[n:]
		block = block[n*d:]
	}
	return buf
}

// estRows feeds the exact squared distances of block's first n rows, at
// global positions p0, p0+1, …, to the estimate reservoir est — the
// quantized scan of a partition without codes. A chunked row is skipped
// when its score is at least the reservoir's bound, exactly the rows Add
// rejects.
//
//mmdr:hotpath quantized scan of an uncoded partition
func estRows(est *quantReservoir, q, block []float64, p0, n int, chunk *[rowChunk]float64) {
	d := len(q)
	if d >= matrix.EarlyAbandonMinLen {
		row := 0
		for p := p0; p < p0+n; p++ {
			v := block[row : row+d : row+d]
			row += d
			est.Add(p, matrix.SqDistEarlyAbandon(q, v, est.Kth()))
		}
		return
	}
	kth := est.Kth()
	for n > 0 {
		c := min(n, rowChunk)
		scores := chunk[:c]
		matrix.SqDistToRows(q, block[:c*d], scores)
		for i, s := range scores {
			if s >= kth {
				continue
			}
			est.Add(p0+i, s)
			kth = est.Kth()
		}
		n -= c
		p0 += c
		block = block[c*d:]
	}
}

// codeRows feeds the ADC estimates of the m-byte code rows of codes, at
// global positions p0, p0+1, …, to the estimate reservoir est; table is the
// query's k-wide-slab lookup table. A row enters only when its estimate is
// below the reservoir's bound, which is refreshed after each Add (it moves
// only on compaction).
//
//mmdr:hotpath quantized scan of a coded partition
func codeRows(est *quantReservoir, table []float64, k int, codes []byte, m, p0 int, chunk *[rowChunk]float64) {
	kth := est.Kth()
	if m >= matrix.ADCAbandonMinBlocks {
		for off := 0; off+m <= len(codes); off += m {
			if s := matrix.ADCSumBound(table, k, codes[off:off+m:off+m], kth); s < kth {
				est.Add(p0, s)
				kth = est.Kth()
			}
			p0++
		}
		return
	}
	for len(codes) >= m {
		n := min(len(codes)/m, rowChunk)
		scores := chunk[:n]
		matrix.ADCToRows(table, k, codes[:n*m], m, scores)
		for i, s := range scores {
			if s < kth {
				est.Add(p0+i, s)
				kth = est.Kth()
			}
		}
		codes = codes[n*m:]
		p0 += n
	}
}
