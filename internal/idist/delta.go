package idist

import (
	"math"

	"mmdr/internal/index"
)

// Writes against the layout (see soaLayout). Insert and Delete keep
// updating the B⁺-tree, the merge source, and record the write in the
// layout: a new row joins its partition's exact delta, a deleted row's
// vector becomes +Inf. The read side evaluates the delta before the first
// annulus (soloDelta, tileDelta) and drops deleted ids from the results
// (dropDead), each behind the one pending == 0 test.

// storedVec returns record id's stored vector in partition pi: its reduced
// coordinates, or the original point for the outlier partition.
func (idx *Index) storedVec(pi, id int) []float64 {
	if s := idx.parts[pi].sub; s != nil {
		return s.MemberCoords(int(idx.slotOf[id]))
	}
	return idx.ds.Point(id)
}

// addDelta appends the newly inserted record id to partition pi's delta. A
// partition the layout does not know yet (the outlier partition Insert
// creates on demand) is merged in at once.
//
//mmdr:hotpath
func (idx *Index) addDelta(pi, id int) {
	lay := idx.layout
	if pi >= len(lay.drids) {
		idx.rebuildLayout()
		return
	}
	lay.dvecs[pi] = append(lay.dvecs[pi], idx.storedVec(pi, id)...)
	lay.drids[pi] = append(lay.drids[pi], uint32(id))
	idx.noteWrite()
}

// tombstone overwrites deleted record id's vector in partition pi with
// +Inf — its block row, or its delta row when it arrived after the merge —
// so every kernel scores it +Inf until the next merge drops it.
//
//mmdr:hotpath
func (idx *Index) tombstone(pi, id int) {
	lay := idx.layout
	d := lay.dims[pi]
	var v []float64
	if id < len(lay.rowOf) && lay.rowOf[id] >= 0 {
		row := int(lay.rowOf[id])
		v = lay.vecs[pi][row*d : (row+1)*d]
	} else {
		for i, rid := range lay.drids[pi] {
			if int(rid) == id {
				v = lay.dvecs[pi][i*d : (i+1)*d]
			}
		}
	}
	for i := range v {
		v[i] = math.Inf(1)
	}
	idx.noteWrite()
}

// noteWrite counts one write toward the merge: the write that brings delta
// rows plus deleted rows to ⌈√n⌉ rebuilds the layout from the tree, which
// folds the delta in and drops the deleted rows.
func (idx *Index) noteWrite() {
	lay := idx.layout
	if lay.pending++; lay.pending >= lay.mergeAt {
		idx.rebuildLayout()
	}
}

// soloDelta offers every delta row to the solo query's top-k.
//
//mmdr:hotpath
func (idx *Index) soloDelta(sc *queryScratch, tr *QueryTrace) {
	lay := idx.layout
	for pi, rids := range lay.drids {
		if len(rids) == 0 {
			continue
		}
		sc.beginScan(pi)
		sc.cand = 0
		sc.evalRows(lay.dvecs[pi], rids)
		if tr != nil {
			tr.Candidates += sc.cand
			tr.Partitions[pi].Candidates += sc.cand
		}
	}
}

// tileDelta evaluates every delta row for tile query j through
// evalInterval: into its top-k heap (knnMode) or, filtered by the squared
// radius r2, into its range buffer.
//
//mmdr:hotpath
func (idx *Index) tileDelta(bs *batchScratch, j int, knnMode bool, r2 float64) {
	lay := idx.layout
	var ops int64
	for pi, rids := range lay.drids {
		if len(rids) == 0 {
			continue
		}
		idx.evalInterval(bs, bs.projBuf[bs.projOff[pi]:], lay.dvecs[pi], rids, lay.dims[pi], 0, j, knnMode, r2)
		ops += int64(len(rids))
	}
	if idx.counter != nil {
		idx.counter.CountDistanceOps(ops)
	}
}

// dropDead removes deleted records from a result list in place, keeping
// its order. A deleted row scores +Inf, so it reaches a KNN answer only
// when fewer live rows than k were scanned, and a range answer only at an
// infinite radius. The filters stay out of line so the searches calling
// them keep their pinned bounds-check counts (mmdrgate).
//
//mmdr:hotpath
//go:noinline
func (idx *Index) dropDead(nbs []index.Neighbor) []index.Neighbor {
	live := nbs[:0]
	for _, nb := range nbs {
		if idx.partOf[nb.ID] >= 0 {
			live = append(live, nb)
		}
	}
	return live
}

// dropDeadTile applies dropDead to each of a tile's KNN results.
//
//mmdr:hotpath
//go:noinline
func (idx *Index) dropDeadTile(out [][]index.Neighbor) {
	for j, res := range out {
		out[j] = idx.dropDead(res)
	}
}

// dropDeadBufs applies dropDead to the tile's nq range buffers before they
// are materialized.
//
//mmdr:hotpath
//go:noinline
func (idx *Index) dropDeadBufs(bs *batchScratch, nq int) {
	for j := 0; j < nq; j++ {
		bs.rangeBufs[j] = idx.dropDead(bs.rangeBufs[j])
	}
}
