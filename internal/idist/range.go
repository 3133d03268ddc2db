package idist

import (
	"time"

	"mmdr/internal/index"
	"mmdr/internal/matrix"
)

// Range returns every point whose distance to q (in the partition metric:
// reduced coordinates for subspace members, original space for outliers) is
// at most r, sorted ascending by distance. Range queries are the other
// query class iDistance supports natively: the query sphere maps to one key
// annulus per partition, no iteration required. The search runs as a fused
// tile of one (rangeTile).
//
//mmdr:hotpath budget pinned by alloc_test: 1 alloc non-empty, 0 empty
func (idx *Index) Range(q []float64, r float64) []index.Neighbor {
	var qs [1][]float64
	var out [1][]index.Neighbor
	qs[0] = q
	bs := idx.getBatchScratch()
	if idx.ops == nil {
		idx.rangeTile(bs, qs[:], r, out[:])
	} else {
		start := time.Now()
		idx.rangeTile(bs, qs[:], r, out[:])
		idx.ops.rng.Record(time.Since(start))
	}
	idx.putBatchScratch(bs)
	return out[0]
}

// Delete removes point id from the index. The B⁺-tree entry is deleted and
// the layout row tombstoned (see soaLayout); the subspace's member slot is
// left in place so the reduced coordinates of other members keep their
// offsets. It reports whether the point was present.
func (idx *Index) Delete(id int) bool {
	if idx.ops != nil {
		start := time.Now()
		ok := idx.delete(id)
		idx.ops.del.Record(time.Since(start))
		if ok {
			idx.ops.points.Add(-1)
		}
		return ok
	}
	return idx.delete(id)
}

func (idx *Index) delete(id int) bool {
	if id < 0 || id >= len(idx.partOf) || idx.partOf[id] < 0 {
		return false
	}
	pi := int(idx.partOf[id])
	p := &idx.parts[pi]
	var key float64
	if p.sub != nil {
		key = float64(pi)*idx.c + matrix.Norm2(p.sub.MemberCoords(int(idx.slotOf[id])))
	} else {
		key = float64(pi)*idx.c + matrix.Dist(idx.ds.Point(id), p.centroid)
	}
	if !idx.tree.Delete(key, uint32(id)) {
		return false
	}
	idx.partOf[id] = -1
	idx.slotOf[id] = -1
	idx.tombstone(pi, id)
	return true
}
