package idist

import (
	"math"

	"mmdr/internal/index"
	"mmdr/internal/iostat"
	"mmdr/internal/matrix"
)

// Fused batch search: one partition scan serves a whole tile of queries.
//
// The per-query search (knnInto) scans each annulus segment per partition
// per round on its own — for a batch, every query would re-stream the same
// vector blocks through the cache. Two binary searches over the layout's
// key array convert the half-open annulus bounds exactly to row-interval
// endpoints, which makes the scans of different queries composable: the
// tile's row intervals are decomposed into elementary intervals, and each
// block row in an interval is evaluated against every query active there
// via the multi-query kernel (matrix.SqDistRowToSel) — each row is read
// once per tile instead of once per query. Range and KNNQuantized run as
// tiles of one.
//
// Radius schedule: the tile does not advance in lockstep. Each query opens
// at its own first radius, a density estimate of its k-th neighbor distance
// (firstRadius), and after every round whose stop rule fails multiplies its
// own radius by radiusGrowth (stopOrGrow). The solo exact search keeps the
// paper's fixed deltaR step, which at low reduced dimensionality makes its
// first annulus far wider than the k-th neighbor distance; the per-query
// estimate starts the fused scan near that distance instead.
//
// Equivalence: both searches are exact. A query stops only once its k-th
// squared distance lies inside its sphere, and by then every row its sphere
// reaches has been evaluated, so any row left unseen is strictly farther
// than the k-th neighbor. The top-k accumulator keeps the k smallest by
// (Dist, ID), so the answer does not depend on the order rows arrive in,
// and the shared kernels return bit-identical squared distances on both
// paths (an early-abandoned result is only ever one that exceeds the k-th).
// Fused answers are therefore bit-identical to a sequential query loop —
// locked down by the equivalence tests and the FuzzBatchKNNvsKNN target.
//
// Cost accounting: DistanceOps are exact (one per query-candidate pair, as
// in the per-query path). Page reads count each leaf the fused scan touches
// once per partition scan — the physical I/O of the shared pass, which is
// the point of fusing — rather than once per query, so page totals are
// intentionally lower than a sequential loop's. Key compares charge the
// binary-search probes actually performed.

// batchTile is the number of queries a fused partition scan serves at once.
// The tile bounds the working set of per-query state (heaps, projections,
// annulus intervals) while giving each streamed block row batchTile chances
// of reuse from registers/L1; 8 keeps the whole tile state comfortably
// cache-resident at paper-scale dimensionalities.
const batchTile = 8

// radiusGrowth is the factor a fused query's radius grows by after each
// round whose stop rule fails.
const radiusGrowth = 1.5

// BatchTile reports the fused batch engine's query-tile width, for
// benchmark reports and capacity planning.
func BatchTile() int { return batchTile }

// batchScratch bundles every buffer a fused tile search needs, pooled on
// the index so steady-state batch queries allocate only their result
// slices. All per-query-per-partition state is indexed [pi*batchTile + j].
type batchScratch struct {
	idx  *Index
	tops []*index.TopK // per-query KNN accumulators (squared distances)

	// rad is each query's current search radius; a negative radius marks
	// a query that has finished.
	rad     []float64
	allDone []bool // per-round accumulator, mirrors knnInto's allDone

	dist      []float64 // dist(q_j, O_pi) in the partition metric
	scanLo    []float64 // already-scanned annulus per query per partition
	scanHi    []float64
	exhausted []bool

	// Cached row images of the scanned annulus: rowLo = lowerBound(keys,
	// base+scanLo), rowHi = upperBound(keys, base+scanHi). Extensions gallop
	// outward from these instead of re-searching the whole span.
	rowLo []int
	rowHi []int

	// projBuf holds, per partition, a flat batchTile×dims[pi] row-major
	// tile of query-side vectors (subspace projections, or the original
	// queries for the outlier partition), at offset projOff[pi]. This is
	// the qs argument of matrix.SqDistRowToSel.
	projBuf []float64
	projOff []int

	// Per-partition-scan segment scratch: each active query contributes up
	// to two row intervals (lo- and hi-extension), [segA, segB) owned by
	// query segQ.
	segA []int
	segB []int
	segQ []int32
	bp   []int // elementary-interval breakpoints (sorted, deduped)

	act    []int32   // tile rows active in the current elementary interval
	bounds []float64 // their early-abandon bounds
	out    []float64 // kernel results

	rangeBufs [][]index.Neighbor // per-query Range accumulators (squared)

	// Quantized-path state (sized by ensureQuant, see fusedquant.go):
	// per-query ADC estimate reservoirs plus a per-partition tile of
	// per-query lookup tables, built lazily per (query, partition) per
	// tile search.
	ests    []*quantReservoir
	qtab    []float64
	qtabOff []int  // len nParts+1; partition pi's table tile at qtabOff[pi]
	qbuilt  []bool // [pi*batchTile + j]: query j's table for pi is built
	qrows   []int  // per-query rows evaluated, against the scan quota
}

// getBatchScratch returns a pooled, correctly sized batch scratch. Pair
// with putBatchScratch.
func (idx *Index) getBatchScratch() *batchScratch {
	bs, _ := idx.batchPool.Get().(*batchScratch)
	if bs == nil {
		bs = &batchScratch{idx: idx}
		bs.tops = make([]*index.TopK, batchTile)
		for j := range bs.tops {
			bs.tops[j] = index.NewTopK(0)
		}
		bs.rad = make([]float64, batchTile)
		bs.allDone = make([]bool, batchTile)
		bs.segA = make([]int, 2*batchTile)
		bs.segB = make([]int, 2*batchTile)
		bs.segQ = make([]int32, 2*batchTile)
		bs.bp = make([]int, 4*batchTile)
		bs.act = make([]int32, batchTile)
		bs.bounds = make([]float64, batchTile)
		bs.out = make([]float64, batchTile)
		bs.rangeBufs = make([][]index.Neighbor, batchTile)
		bs.ests = make([]*quantReservoir, batchTile)
		for j := range bs.ests {
			bs.ests[j] = new(quantReservoir)
		}
	}
	bs.ensure()
	return bs
}

// putBatchScratch returns a scratch to the pool.
func (idx *Index) putBatchScratch(bs *batchScratch) {
	idx.batchPool.Put(bs)
}

// ensure sizes the per-partition state and the projection tile for the
// index's current layout.
func (bs *batchScratch) ensure() {
	idx := bs.idx
	lay := idx.layout
	nP := len(idx.parts)
	need := nP * batchTile
	if cap(bs.dist) < need {
		bs.dist = make([]float64, need)
		bs.scanLo = make([]float64, need)
		bs.scanHi = make([]float64, need)
		bs.exhausted = make([]bool, need)
		bs.rowLo = make([]int, need)
		bs.rowHi = make([]int, need)
	}
	bs.dist = bs.dist[:need]
	bs.scanLo = bs.scanLo[:need]
	bs.scanHi = bs.scanHi[:need]
	bs.exhausted = bs.exhausted[:need]
	bs.rowLo = bs.rowLo[:need]
	bs.rowHi = bs.rowHi[:need]
	if cap(bs.projOff) < nP {
		bs.projOff = make([]int, nP)
	}
	bs.projOff = bs.projOff[:nP]
	off := 0
	for pi := 0; pi < nP; pi++ {
		bs.projOff[pi] = off
		off += lay.dims[pi] * batchTile
	}
	if cap(bs.projBuf) < off {
		bs.projBuf = make([]float64, off)
	}
	bs.projBuf = bs.projBuf[:off]
}

// primeTile projects the tile's queries into every partition's metric and
// resets the per-query annulus state — the fused counterpart of knnInto's
// per-partition setup loop, computed by the same expressions.
func (idx *Index) primeTile(bs *batchScratch, queries [][]float64) {
	lay := idx.layout
	nq := len(queries)
	for pi := range idx.parts {
		p := &idx.parts[pi]
		d := lay.dims[pi]
		tile := bs.projBuf[bs.projOff[pi]:]
		for j := 0; j < nq; j++ {
			qp := tile[j*d : (j+1)*d]
			si := pi*batchTile + j
			if p.sub != nil {
				p.sub.ProjectInto(queries[j], qp)
				bs.dist[si] = math.Sqrt(matrix.SqNorm(qp))
			} else {
				copy(qp, queries[j])
				bs.dist[si] = matrix.Dist(queries[j], p.centroid)
			}
			bs.scanLo[si] = math.Inf(1)
			bs.scanHi[si] = math.Inf(-1)
			bs.exhausted[si] = false
		}
	}
}

// knnTile answers one tile of KNN queries with fused partition scans,
// writing out[j] for queries[j]. len(queries) <= batchTile, k > 0.
//
//mmdr:hotpath fused tile search; allocates only the per-query result slices
func (idx *Index) knnTile(bs *batchScratch, queries [][]float64, k int, out [][]index.Neighbor) {
	nq := len(queries)
	idx.primeTile(bs, queries)
	pending := idx.layout.pending != 0
	for j := 0; j < nq; j++ {
		bs.tops[j].Reset(k)
		bs.rad[j] = idx.firstRadius(bs, j, k)
		bs.allDone[j] = true
		if pending {
			idx.tileDelta(bs, j, true, 0)
		}
	}
	for {
		for pi := range idx.parts {
			idx.fusedScanKNN(bs, pi, nq)
		}
		if bs.stopOrGrow(nq, k) {
			break
		}
	}
	for j := 0; j < nq; j++ {
		res := bs.tops[j].Sorted()
		for i := range res {
			res[i].Dist = math.Sqrt(res[i].Dist)
		}
		out[j] = res
	}
	if pending {
		idx.dropDeadTile(out)
	}
}

// firstRadius returns tile query j's opening search radius: the smallest,
// over partitions p, of m_p·(k/n_p)^(1/d_p) + max(0, dist_p − R_p). The
// first term estimates the k-th neighbor distance of a query inside p if
// p's n_p members spread uniformly over a d_p-dimensional ball of radius
// m_p, their mean distance to the reference point; the second is the gap
// from the query to p's data sphere. A zero estimate (members all on the
// reference point) falls back to deltaR. The radius only sets where the
// search starts, never what it returns.
//
//mmdr:hotpath
func (idx *Index) firstRadius(bs *batchScratch, j, k int) float64 {
	dens := idx.layout.dens
	parts := idx.parts[:len(dens)]
	r0 := math.Inf(1)
	for pi, pd := range dens {
		if pd.n < 1 {
			continue
		}
		r := pd.mean * math.Pow(float64(k)/pd.n, pd.invDim)
		if gap := bs.dist[pi*batchTile+j] - parts[pi].maxRadius; gap > 0 {
			r += gap
		}
		if r < r0 {
			r0 = r
		}
	}
	if r0 > 0 && r0 < math.Inf(1) {
		return r0
	}
	return idx.deltaR
}

// stopOrGrow ends a fused round: each unfinished query whose k-th squared
// distance lies inside its sphere, or whose partitions are all exhausted,
// finishes (its radius goes negative); every other query grows its radius
// by radiusGrowth and re-arms its allDone accumulator for the next round.
// Reports whether the whole tile has finished.
//
//mmdr:hotpath
func (bs *batchScratch) stopOrGrow(nq, k int) bool {
	rad := bs.rad[:nq]
	allDone := bs.allDone[:nq]
	tops := bs.tops[:nq]
	finished := true
	for j, r := range rad {
		if r < 0 {
			continue
		}
		if top := tops[j]; (top.Len() >= k && top.Kth() <= r*r) || allDone[j] {
			rad[j] = -1
			continue
		}
		rad[j] = r * radiusGrowth
		allDone[j] = true
		finished = false
	}
	return finished
}

// fusedScanKNN advances every unfinished tile query's annulus in partition
// pi to its current radius and evaluates the union of their new row
// intervals in a single pass over the partition's block.
//
//mmdr:hotpath
func (idx *Index) fusedScanKNN(bs *batchScratch, pi, nq int) {
	lay := idx.layout
	p := &idx.parts[pi]
	ps, pe := lay.partStart[pi], lay.partStart[pi+1]
	keys := lay.keys[ps:pe]
	base := float64(pi) * idx.c

	// Collect the round's new row intervals, exactly knnInto's annulus
	// bookkeeping with the half-open key scans converted to row endpoints:
	// inclusive lo ↦ lowerBound, exclusive lo ↦ upperBound, inclusive hi ↦
	// upperBound, exclusive hi ↦ lowerBound — the same entry sets
	// RangeBetween's bound flags select.
	nseg := 0
	for j := 0; j < nq; j++ {
		si := pi*batchTile + j
		r := bs.rad[j]
		if r < 0 || bs.exhausted[si] {
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
				bs.allDone[j] = false // may reach this partition later
			}
			continue
		}
		if bs.scanLo[si] > bs.scanHi[si] {
			a := searchKeys(idx.counter, keys, base+lo, false)
			b := a + searchKeys(idx.counter, keys[a:], base+hi, true)
			nseg = bs.addSeg(nseg, a, b, j)
			bs.rowLo[si], bs.rowHi[si] = a, b
			bs.scanLo[si], bs.scanHi[si] = lo, hi
		} else {
			// Grown annulus: the new edges lie just outside the cached row
			// boundaries (the radius grows by one step per round), so gallop
			// outward from them — same results as a full binary search
			// (rowLo/rowHi are exactly the old edges' bound positions), with
			// probes that stay in the neighborhood the last round touched.
			if lo < bs.scanLo[si] {
				a := idx.gallopDown(keys, bs.rowLo[si], base+lo, false)
				nseg = bs.addSeg(nseg, a, bs.rowLo[si], j)
				bs.rowLo[si] = a
				bs.scanLo[si] = lo
			}
			if hi > bs.scanHi[si] {
				b := idx.gallopUp(keys, bs.rowHi[si], base+hi, true)
				nseg = bs.addSeg(nseg, bs.rowHi[si], b, j)
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
	idx.evalSegments(bs, pi, ps, nseg, true, 0)
}

// keyBefore reports whether a stored key lies strictly before an annulus
// edge: key < bound for a lower-bound edge (upper=false), key <= bound for
// an upper-bound edge (upper=true) — the btree lowerBound/upperBound
// predicates, expressed as orderings so the half-open edge semantics stay
// bitwise without an equality comparison.
//
//mmdr:hotpath
func keyBefore(k, bound float64, upper bool) bool {
	if upper {
		return k <= bound
	}
	return k < bound
}

// searchKeys locates an annulus edge in a partition's key span: the first
// position with key >= bound (upper=false, an inclusive low / exclusive
// high edge) or key > bound (upper=true, an exclusive low / inclusive high
// edge). Each probe is charged to ctr as one key comparison, mirroring the
// per-level binary searches of the tree descent it replaces.
//
//mmdr:hotpath
func searchKeys(ctr iostat.Sink, keys []float64, bound float64, upper bool) int {
	lo, hi := 0, len(keys)
	probes := 0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		if keyBefore(keys[mid], bound, upper) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if ctr != nil && probes > 0 {
		ctr.CountKeyCompares(int64(probes))
	}
	return lo
}

// gallopDown returns searchKeys(keys[:from], bound, upper) — the annulus
// edge is known to lie at or before from — probing exponentially backward
// from from, then binary-searching the bracketed window. The radius grows
// by one step per round, so the edge is near from and the probes stay
// cache-local. Each probe charges one key comparison like searchKeys.
//
//mmdr:hotpath
func (idx *Index) gallopDown(keys []float64, from int, bound float64, upper bool) int {
	lo, hi := 0, from
	probes := 0
	for step := 1; ; step <<= 1 {
		p := from - step
		if p < 0 {
			break
		}
		probes++
		if keyBefore(keys[p], bound, upper) {
			lo = p + 1
			break
		}
		hi = p
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		if keyBefore(keys[mid], bound, upper) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if idx.counter != nil && probes > 0 {
		idx.counter.CountKeyCompares(int64(probes))
	}
	return lo
}

// gallopUp is gallopDown's mirror: searchKeys over keys[from:] (offset back
// to the full span), probing exponentially forward from from.
//
//mmdr:hotpath
func (idx *Index) gallopUp(keys []float64, from int, bound float64, upper bool) int {
	lo, hi := from, len(keys)
	probes := 0
	for step := 1; ; step <<= 1 {
		p := from + step - 1
		if p >= len(keys) {
			break
		}
		probes++
		if keyBefore(keys[p], bound, upper) {
			lo = p + 1
		} else {
			hi = p
			break
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		if keyBefore(keys[mid], bound, upper) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if idx.counter != nil && probes > 0 {
		idx.counter.CountKeyCompares(int64(probes))
	}
	return lo
}

// addSeg records row interval [a, b) for tile query j (empty intervals are
// dropped).
//
//mmdr:hotpath
func (bs *batchScratch) addSeg(nseg, a, b, j int) int {
	if a >= b {
		return nseg
	}
	bs.segA[nseg] = a
	bs.segB[nseg] = b
	bs.segQ[nseg] = int32(j)
	return nseg + 1
}

// evalSegments decomposes the collected row intervals into elementary
// intervals and streams each one's block rows through the multi-query
// kernel. knnMode selects the accumulator: top-k heaps bounded by each
// query's current k-th distance, or the fixed squared radius r2 filtering
// into rangeBufs. Every evaluated row is charged one DistanceOp per active
// query, and every leaf touched is charged once (physical I/O of the shared
// pass).
//
//mmdr:hotpath
func (idx *Index) evalSegments(bs *batchScratch, pi, ps, nseg int, knnMode bool, r2 float64) {
	lay := idx.layout
	// Breakpoints: the segment endpoints, insertion-sorted and deduped
	// (≤ 4·batchTile values, so the quadratic sort is a handful of swaps).
	nbp := 0
	for s := 0; s < nseg; s++ {
		nbp = insertBreakpoint(bs.bp, nbp, bs.segA[s])
		nbp = insertBreakpoint(bs.bp, nbp, bs.segB[s])
	}
	d := lay.dims[pi]
	block := lay.vecs[pi]
	tile := bs.projBuf[bs.projOff[pi]:]
	distOps := int64(0)
	pages := int64(0)
	lastLeaf := int32(-1)
	for bi := 0; bi+1 < nbp; bi++ {
		e0, e1 := bs.bp[bi], bs.bp[bi+1]
		// Active tile rows: segments are elementary-interval aligned, so
		// covering e0 means covering [e0, e1). Segment order is (query,
		// lo-before-hi), deterministic.
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
		if na == 1 || d < matrix.EarlyAbandonMinLen {
			// Query-outer evaluation: each active query runs the solo-style
			// tight loop over the interval's contiguous rows (identical
			// arithmetic to knnRunVisit/rangeRunVisit). Elementary intervals
			// are annulus-intersection sized, so for na > 1 the second and
			// later queries re-read the rows from cache — the row-sharing win
			// without any per-row selection plumbing, which for narrow rows
			// costs more than the d-length kernel itself.
			for a := 0; a < na; a++ {
				idx.evalInterval(bs, tile, block, lay.rids[ps+e0:ps+e1], d, e0, int(act[a]), knnMode, r2)
			}
		} else if knnMode {
			// Wide rows (outlier partitions at paper dimensionality): stream
			// each row once through the row-major multi-query kernel with
			// per-row bound refresh.
			bounds := bs.bounds[:na]
			out := bs.out[:na]
			for p := e0; p < e1; p++ {
				row := p * d
				v := block[row : row+d : row+d]
				for a := 0; a < na; a++ {
					bounds[a] = bs.tops[act[a]].Kth()
				}
				matrix.SqDistRowToSel(v, tile, d, act, bounds, out)
				rid := int(lay.rids[ps+p])
				for a := 0; a < na; a++ {
					bs.tops[act[a]].Add(rid, out[a])
				}
			}
		} else {
			bounds := bs.bounds[:na]
			out := bs.out[:na]
			for a := 0; a < na; a++ {
				bounds[a] = r2
			}
			for p := e0; p < e1; p++ {
				row := p * d
				v := block[row : row+d : row+d]
				matrix.SqDistRowToSel(v, tile, d, act, bounds, out)
				rid := int(lay.rids[ps+p])
				for a := 0; a < na; a++ {
					if out[a] <= r2 {
						j := act[a]
						bs.rangeBufs[j] = append(bs.rangeBufs[j], index.Neighbor{ID: rid, Dist: out[a]})
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

// evalInterval runs one query's tight loop over an elementary interval's
// contiguous block rows — the same kernel, bound refresh and accumulation as
// the solo visit loops, so results are bit-identical to per-query execution.
// rids is the interval's record-id slice; e0 is the interval's first row
// inside the partition block, j the tile row of the query.
//
//mmdr:hotpath
func (idx *Index) evalInterval(bs *batchScratch, tile, block []float64, rids []uint32, d, e0, j int, knnMode bool, r2 float64) {
	q := tile[j*d : (j+1)*d : (j+1)*d]
	row := e0 * d
	abandon := d >= matrix.EarlyAbandonMinLen
	if knnMode {
		top := bs.tops[j]
		if abandon {
			for _, rid := range rids {
				v := block[row : row+d : row+d]
				row += d
				top.Add(int(rid), matrix.SqDistEarlyAbandon(q, v, top.Kth()))
			}
		} else {
			for _, rid := range rids {
				v := block[row : row+d : row+d]
				row += d
				top.Add(int(rid), matrix.SqDist(q, v))
			}
		}
		return
	}
	buf := bs.rangeBufs[j]
	if abandon {
		for _, rid := range rids {
			v := block[row : row+d : row+d]
			row += d
			if d2 := matrix.SqDistEarlyAbandon(q, v, r2); d2 <= r2 {
				buf = append(buf, index.Neighbor{ID: int(rid), Dist: d2})
			}
		}
	} else {
		for _, rid := range rids {
			v := block[row : row+d : row+d]
			row += d
			if d2 := matrix.SqDist(q, v); d2 <= r2 {
				buf = append(buf, index.Neighbor{ID: int(rid), Dist: d2})
			}
		}
	}
	bs.rangeBufs[j] = buf
}

// insertBreakpoint inserts v into the sorted prefix bp[:n], dropping
// duplicates, and returns the new length.
//
//mmdr:hotpath
func insertBreakpoint(bp []int, n, v int) int {
	i := n
	for i > 0 && bp[i-1] > v {
		bp[i] = bp[i-1]
		i--
	}
	if i > 0 && bp[i-1] == v {
		copy(bp[i:], bp[i+1:n+1])
		return n
	}
	bp[i] = v
	return n + 1
}

// rangeTile answers one tile of range queries with fused partition scans —
// one annulus per partition per query, no rounds.
//
//mmdr:hotpath fused tile range; allocates only the per-query result slices
func (idx *Index) rangeTile(bs *batchScratch, queries [][]float64, r float64, out [][]index.Neighbor) {
	lay := idx.layout
	nq := len(queries)
	idx.primeTile(bs, queries)
	r2 := r * r
	pending := lay.pending != 0
	for j := 0; j < nq; j++ {
		bs.rangeBufs[j] = bs.rangeBufs[j][:0]
		if pending {
			idx.tileDelta(bs, j, false, r2)
		}
	}
	for pi := range idx.parts {
		p := &idx.parts[pi]
		ps, pe := lay.partStart[pi], lay.partStart[pi+1]
		keys := lay.keys[ps:pe]
		base := float64(pi) * idx.c
		nseg := 0
		for j := 0; j < nq; j++ {
			si := pi*batchTile + j
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
				continue
			}
			a := searchKeys(idx.counter, keys, base+lo, false)
			b := searchKeys(idx.counter, keys, base+hi, true)
			nseg = bs.addSeg(nseg, a, b, j)
		}
		if nseg == 0 {
			continue
		}
		idx.evalSegments(bs, pi, ps, nseg, false, r2)
	}
	if pending {
		idx.dropDeadBufs(bs, nq)
	}
	for j := 0; j < nq; j++ {
		buf := bs.rangeBufs[j]
		if len(buf) == 0 {
			out[j] = nil
			continue
		}
		// Sort by (squared distance, ID) — a strict total order, so any
		// accumulation order yields the same sorted result — then one
		// allocation and a sqrt per neighbor.
		index.SortNeighbors(buf)
		res := make([]index.Neighbor, len(buf))
		copy(res, buf)
		for i := range res {
			res[i].Dist = math.Sqrt(res[i].Dist)
		}
		out[j] = res
	}
}
