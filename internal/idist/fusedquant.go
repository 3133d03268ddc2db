package idist

import (
	"math"
	"time"

	"mmdr/internal/index"
	"mmdr/internal/matrix"
	"mmdr/internal/pool"
)

// Fused quantized search: the tile machinery of fused.go — per-query
// annulus state, elementary-interval decomposition, one pass over each
// partition's storage per tile — applied to the quantized scan path, with
// a lockstep radius ramp: every unfinished query of the tile runs at the
// same radius each round. Each query active in an elementary interval
// scores its code rows by table sums (m table loads per row) while the rows
// are cache-hot, feeding the per-query estimate reservoirs; when a query's
// budget-th estimate falls inside its sphere or its scan quota is spent the
// query finishes, and its surviving candidates are re-ranked exactly.
// KNNQuantized is a tile of one.
//
// A query's answer does not depend on its tile-mates: per query, rows
// arrive in ascending global position with the same lazily built table and
// the same bound-guarded early abandoning at every tile shape, so the
// estimate reservoirs, the candidate sets and the re-ranked answers are
// bit-identical to a sequential KNNQuantized loop at every worker count.

// ensureQuant sizes the quantized tile state (estimate reservoirs sized by
// Reset, the ADC table tile, build flags) for the index's current
// partitions and codebooks. Called by the quantized batch path after the
// shared ensure().
func (bs *batchScratch) ensureQuant() {
	idx := bs.idx
	nP := len(idx.parts)
	if cap(bs.qtabOff) < nP+1 {
		bs.qtabOff = make([]int, nP+1)
	}
	bs.qtabOff = bs.qtabOff[:nP+1]
	set := idx.quant
	off := 0
	for pi := 0; pi < nP; pi++ {
		bs.qtabOff[pi] = off
		if set != nil && pi < len(set.Books) && set.Books[pi] != nil {
			off += set.Books[pi].TableLen() * batchTile
		}
	}
	bs.qtabOff[nP] = off
	if cap(bs.qtab) < off {
		bs.qtab = make([]float64, off)
	}
	bs.qtab = bs.qtab[:off]
	need := nP * batchTile
	if cap(bs.qbuilt) < need {
		bs.qbuilt = make([]bool, need)
	}
	bs.qbuilt = bs.qbuilt[:need]
	if bs.qrows == nil {
		bs.qrows = make([]int, batchTile)
	}
}

// BatchKNNQuantized answers len(queries) quantized KNN queries using at
// most workers goroutines (workers <= 0 selects runtime.NumCPU()). Same
// quantizer contract as KNNQuantized; results are bit-identical to a
// sequential KNNQuantized loop at every worker count.
//
//mmdr:hotpath budget pinned by alloc_test: 2 + one result slice per query
func (idx *Index) BatchKNNQuantized(queries [][]float64, k, budget, workers int) ([][]index.Neighbor, error) {
	if idx.quant == nil {
		return nil, ErrNoQuantizer
	}
	if k <= 0 {
		return make([][]index.Neighbor, len(queries)), nil
	}
	if budget < k {
		budget = k
	}
	out := make([][]index.Neighbor, len(queries))
	ops := idx.ops
	start := time.Now()
	pool.Chunks(pool.Workers(workers), len(queries), func(w, lo, hi int) {
		bs := idx.getBatchScratch()
		defer idx.putBatchScratch(bs)
		bs.ensureQuant()
		for t := lo; t < hi; t += batchTile {
			te := t + batchTile
			if te > hi {
				te = hi
			}
			if ops == nil {
				idx.quantTile(bs, queries[t:te], k, budget, out[t:te])
				continue
			}
			ts := time.Now()
			idx.quantTile(bs, queries[t:te], k, budget, out[t:te])
			per := time.Since(ts) / time.Duration(te-t)
			for i := t; i < te; i++ {
				ops.quantKNN.RecordShard(w, per)
			}
		}
	})
	if ops != nil {
		ops.batchQuantKNN.Record(time.Since(start))
	}
	return out, nil
}

// quantTile answers one tile of quantized KNN queries with fused partition
// scans. len(queries) <= batchTile, k > 0, budget >= k, quantizer attached.
// Delta rows go straight to the exact re-rank heaps.
//
//mmdr:hotpath fused quantized tile; allocates only the per-query results
func (idx *Index) quantTile(bs *batchScratch, queries [][]float64, k, budget int, out [][]index.Neighbor) {
	nq := len(queries)
	// Clamp the reservoir's compaction target to the row count: a
	// budget >= n reservoir then never fills, its bound stays +Inf, and
	// every scanned row is kept — the bitwise-exact degenerate point.
	resK := budget
	if nRows := idx.layout.partStart[len(idx.parts)]; resK > nRows {
		resK = nRows
	}
	quota := budget * quantScanFactor
	if quota/quantScanFactor != budget { // overflow: quota can never bind
		quota = int(^uint(0) >> 1)
	}
	step := idx.deltaR / quantDeltaDiv
	r := step
	for j := 0; j < nq; j++ {
		bs.ests[j].Reset(resK)
		bs.rad[j] = r
		bs.qrows[j] = 0
	}
	for i := range bs.qbuilt {
		bs.qbuilt[i] = false
	}
	idx.primeTile(bs, queries)

	for {
		for j := 0; j < nq; j++ {
			bs.allDone[j] = true
		}
		for pi := range idx.parts {
			idx.fusedScanQuant(bs, pi, nq, quota)
		}
		if step *= quantStepRatio; step > idx.deltaR*quantStepCap {
			step = idx.deltaR * quantStepCap
		}
		next := r + step
		// Stop when the budget-th ESTIMATE is within the sphere (every row
		// whose estimate could displace a kept candidate has been seen),
		// when the scan quota is spent, or when the partitions are
		// exhausted. Larger budgets scan strictly more rows under each rule
		// — the recall knob — and an unbounded budget degenerates to the
		// full scan.
		finished := true
		for j := 0; j < nq; j++ {
			if bs.rad[j] < 0 {
				continue
			}
			if (bs.ests[j].Len() >= budget && bs.ests[j].Kth() <= r*r) || bs.qrows[j] >= quota || bs.allDone[j] {
				bs.rad[j] = -1
			} else {
				bs.rad[j] = next
				finished = false
			}
		}
		if finished {
			break
		}
		r = next
	}

	// Exact re-rank, per query, over its surviving candidates — the same
	// kernels and bound discipline as the exact search, with the query-side
	// vectors read from the projection tile.
	lay := idx.layout
	pending := lay.pending != 0
	for j := 0; j < nq; j++ {
		top := bs.tops[j]
		top.Reset(k)
		if pending {
			idx.tileDelta(bs, j, true, 0)
		}
		cands := bs.ests[j].Items()
		for _, nb := range cands {
			p := nb.ID
			pi := 0
			for lay.partStart[pi+1] <= p {
				pi++
			}
			d := lay.dims[pi]
			row := p - lay.partStart[pi]
			v := lay.vecs[pi][row*d : (row+1)*d : (row+1)*d]
			tile := bs.projBuf[bs.projOff[pi]:]
			x := tile[j*d : (j+1)*d : (j+1)*d]
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
		res := top.Sorted()
		for i := range res {
			res[i].Dist = math.Sqrt(res[i].Dist)
		}
		out[j] = res
	}
	if pending {
		idx.dropDeadTile(out)
	}
}

// fusedScanQuant advances every unfinished tile query's annulus in
// partition pi to its current radius — the identical interval bookkeeping
// of fusedScanKNN — and evaluates the union of new row intervals in one
// pass over the partition's code block.
//
//mmdr:hotpath
func (idx *Index) fusedScanQuant(bs *batchScratch, pi, nq, quota int) {
	lay := idx.layout
	p := &idx.parts[pi]
	ps, pe := lay.partStart[pi], lay.partStart[pi+1]
	keys := lay.keys[ps:pe]
	base := float64(pi) * idx.c

	nseg := 0
	for j := 0; j < nq; j++ {
		si := pi*batchTile + j
		// Partition-boundary quota check: qrows[j] holds the query's
		// cumulative row count, so the cut bounds the quota overshoot to one
		// partition's annulus increment instead of a whole round's.
		r := bs.rad[j]
		if r < 0 || bs.exhausted[si] || bs.qrows[j] >= quota {
			continue
		}
		dist := bs.dist[si]
		lo := dist - r
		if lo < 0 {
			lo = 0
		}
		hi := dist + r
		if hi > p.maxRadius {
			hi = p.maxRadius
		}
		if lo > hi {
			if dist-r > p.maxRadius {
				bs.allDone[j] = false
			}
			continue
		}
		if bs.scanLo[si] > bs.scanHi[si] {
			a := searchKeys(idx.counter, keys, base+lo, false)
			b := a + searchKeys(idx.counter, keys[a:], base+hi, true)
			nseg = bs.addSeg(nseg, a, b, j)
			bs.qrows[j] += b - a
			bs.rowLo[si], bs.rowHi[si] = a, b
			bs.scanLo[si], bs.scanHi[si] = lo, hi
		} else {
			if lo < bs.scanLo[si] {
				a := idx.gallopDown(keys, bs.rowLo[si], base+lo, false)
				nseg = bs.addSeg(nseg, a, bs.rowLo[si], j)
				bs.qrows[j] += bs.rowLo[si] - a
				bs.rowLo[si] = a
				bs.scanLo[si] = lo
			}
			if hi > bs.scanHi[si] {
				b := idx.gallopUp(keys, bs.rowHi[si], base+hi, true)
				nseg = bs.addSeg(nseg, bs.rowHi[si], b, j)
				bs.qrows[j] += b - bs.rowHi[si]
				bs.rowHi[si] = b
				bs.scanHi[si] = hi
			}
		}
		if bs.scanLo[si] <= 0 && bs.scanHi[si] >= p.maxRadius {
			bs.exhausted[si] = true
		} else {
			bs.allDone[j] = false
		}
	}
	if nseg == 0 {
		return
	}
	idx.evalSegmentsQuant(bs, pi, ps, nseg)
}

// evalSegmentsQuant streams the elementary intervals of the collected
// segments over partition pi's code block: each active query adds the ADC
// estimates of the interval's code rows to its reservoir, while the rows
// are cache-hot from the previous query. Partitions without a code block
// fall back to exact per-query evaluation (the estimates are then exact).
// Accounting matches evalSegments: one DistanceOp per query-row pair, each
// touched leaf charged once per scan.
//
//mmdr:hotpath
func (idx *Index) evalSegmentsQuant(bs *batchScratch, pi, ps, nseg int) {
	lay := idx.layout
	codes := lay.codes[pi]
	d := lay.dims[pi]
	block := lay.vecs[pi]
	tile := bs.projBuf[bs.projOff[pi]:]

	// Lazily build the ADC tables of the queries contributing segments —
	// once per (query, partition) per tile search, so partitions the sphere
	// never reaches cost nothing.
	if codes != nil {
		cb := idx.quant.Books[pi]
		tl := cb.TableLen()
		for s := 0; s < nseg; s++ {
			j := int(bs.segQ[s])
			bi := pi*batchTile + j
			if !bs.qbuilt[bi] {
				cb.ADCTableInto(tile[j*d:(j+1)*d], bs.qtab[bs.qtabOff[pi]+j*tl:bs.qtabOff[pi]+(j+1)*tl])
				bs.qbuilt[bi] = true
			}
		}
	}

	nbp := 0
	for s := 0; s < nseg; s++ {
		nbp = insertBreakpoint(bs.bp, nbp, bs.segA[s])
		nbp = insertBreakpoint(bs.bp, nbp, bs.segB[s])
	}
	distOps := int64(0)
	pages := int64(0)
	lastLeaf := int32(-1)
	for bi := 0; bi+1 < nbp; bi++ {
		e0, e1 := bs.bp[bi], bs.bp[bi+1]
		na := 0
		for s := 0; s < nseg; s++ {
			if bs.segA[s] <= e0 && bs.segB[s] >= e1 {
				bs.act[na] = bs.segQ[s]
				na++
			}
		}
		if na == 0 {
			continue
		}
		if idx.counter != nil {
			l0, l1 := lay.leafOf[ps+e0], lay.leafOf[ps+e1-1]
			if l0 <= lastLeaf {
				l0 = lastLeaf + 1
			}
			if l1 >= l0 {
				pages += int64(l1 - l0 + 1)
				lastLeaf = l1
			}
		}
		act := bs.act[:na]
		if codes != nil {
			// Query-outer, like evalInterval: each active query streams the
			// interval's code rows with its table and reservoir bound held
			// in locals, and the rows stay cache-hot for the next query.
			// The bound is refreshed only after an accepted Add (it moves
			// only on compaction, and Add re-checks).
			cb := idx.quant.Books[pi]
			m, kc, tl := cb.M, cb.K, cb.TableLen()
			tab := bs.qtab[bs.qtabOff[pi]:]
			for a := 0; a < na; a++ {
				j := int(act[a])
				table := tab[j*tl : (j+1)*tl : (j+1)*tl]
				est := bs.ests[j]
				kth := est.Kth()
				off := e0 * m
				for p := e0; p < e1; p++ {
					code := codes[off : off+m : off+m]
					off += m
					if s := matrix.ADCSumBound(table, kc, code, kth); s < kth {
						est.Add(ps+p, s)
						kth = est.Kth()
					}
				}
			}
		} else {
			// Uncoded partition (created after training): exact estimates,
			// query-outer like evalInterval.
			abandon := d >= matrix.EarlyAbandonMinLen
			for a := 0; a < na; a++ {
				j := int(act[a])
				x := tile[j*d : (j+1)*d : (j+1)*d]
				est := bs.ests[j]
				row := e0 * d
				for p := e0; p < e1; p++ {
					v := block[row : row+d : row+d]
					row += d
					if abandon {
						est.Add(ps+p, matrix.SqDistEarlyAbandon(x, v, est.Kth()))
					} else {
						est.Add(ps+p, matrix.SqDist(x, v))
					}
				}
			}
		}
		distOps += int64(na) * int64(e1-e0)
	}
	if idx.counter != nil {
		idx.counter.CountDistanceOps(distOps)
		idx.counter.CountPageReads(pages)
		idx.counter.CountNodeAccesses(pages)
	}
}
