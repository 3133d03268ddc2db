package idist

import (
	"fmt"
	"math"
	"time"

	"mmdr/internal/matrix"
)

// insertBeta is the projection-distance bound a new point must satisfy to
// join a subspace (the reduction's β); points no subspace represents well
// go to the outlier partition. Carried on the index via Options in the
// future if tuning is needed; the paper's Table 1 default is used here.
const insertBeta = 0.1

// Insert adds a new point to the index (extended iDistance dynamic
// insertion, §5). The subspace is chosen with the auxiliary shape array the
// index keeps per cluster: among subspaces whose Mahalanobis distance to
// the point is within the cluster's Mahalanobis radius (with 20% slack) and
// whose projection distance is within β, the closest (normalized by
// radius) wins. If none qualifies the point joins the outlier partition,
// which is created on demand. The point joins the partition's delta, so the
// next query sees it (see soaLayout). It returns the point's new row ID.
//
//mmdr:hotpath
func (idx *Index) Insert(p []float64) (int, error) {
	if idx.ops != nil {
		start := time.Now()
		id, err := idx.insert(p)
		idx.ops.ins.Record(time.Since(start))
		if err == nil {
			idx.ops.points.Add(1)
			idx.ops.partitions.Set(int64(len(idx.parts)))
		}
		return id, err
	}
	return idx.insert(p)
}

//mmdr:hotpath
func (idx *Index) insert(p []float64) (int, error) {
	if len(p) != idx.ds.Dim {
		return 0, insertDimError(len(p), idx.ds.Dim)
	}

	if cap(idx.insDiff) < idx.ds.Dim {
		idx.insDiff = make([]float64, idx.ds.Dim)
	}
	diff := idx.insDiff[:idx.ds.Dim]

	bestPart := -1
	bestScore := math.Inf(1)
	for pi := range idx.parts {
		part := &idx.parts[pi]
		s := part.sub
		if s == nil || s.CovInv == nil {
			continue
		}
		// MahaSq evaluates the quadratic form through the cached Cholesky
		// factor of CovInv when the subspace has one (half the multiplies of
		// the full form), falling back to the dense form otherwise.
		maha := s.MahaSq(p, diff)
		if s.MahaRadius > 0 && maha > s.MahaRadius*1.2 {
			continue
		}
		if cap(idx.insProj) < s.Dr {
			idx.insProj = make([]float64, s.Dr)
		}
		if math.Sqrt(s.ProjectResidualInto(p, idx.insProj[:s.Dr])) > insertBeta {
			continue
		}
		score := maha
		if s.MahaRadius > 0 {
			score = maha / s.MahaRadius
		}
		if score < bestScore {
			bestScore, bestPart = score, pi
		}
	}

	// Register the point in the dataset. The tree entry added below is the
	// merge source; the layout learns of the point through its delta.
	id := idx.ds.N
	idx.ds.Append(p)
	idx.partOf = append(idx.partOf, -1)
	idx.slotOf = append(idx.slotOf, -1)

	var insDist float64
	if bestPart >= 0 {
		// A key must stay inside its partition's [i·c, (i+1)·c) range.
		s := idx.parts[bestPart].sub
		s.ProjectInto(p, idx.insProj[:s.Dr])
		insDist = math.Sqrt(matrix.SqNorm(idx.insProj[:s.Dr]))
		if insDist >= idx.c {
			bestPart = -1
		}
	}

	if bestPart >= 0 {
		part := &idx.parts[bestPart]
		s := part.sub
		slot := len(s.Members)
		s.Members = append(s.Members, id)
		s.Coords = append(s.Coords, idx.insProj[:s.Dr]...)
		dist := insDist
		if dist > s.MaxRadius {
			s.MaxRadius = dist
			part.maxRadius = dist
		}
		idx.partOf[id] = int32(bestPart)
		idx.slotOf[id] = int32(slot)
		idx.tree.Insert(float64(bestPart)*idx.c+dist, uint32(id))
		idx.addDelta(bestPart, id)
		return id, nil
	}

	// Outlier partition, created on first demand.
	oi := idx.outlierPartition(p)
	part := &idx.parts[oi]
	dist := matrix.Dist(p, part.centroid)
	if dist > part.maxRadius {
		part.maxRadius = dist
	}
	idx.partOf[id] = int32(oi)
	idx.slotOf[id] = -1
	idx.tree.Insert(float64(oi)*idx.c+dist, uint32(id))
	idx.red.Outliers = append(idx.red.Outliers, id)
	idx.addDelta(oi, id)
	return id, nil
}

// insertDimError builds the rejected-input error off the insert hot path.
// fmt.Errorf boxes its arguments into interfaces, which the escape analyzer
// charges to the enclosing function whether or not the branch is taken;
// keeping the construction in a cold noinline helper keeps insert itself
// heap-allocation-free under the mmdrgate contract.
//
//go:noinline
func insertDimError(got, want int) error {
	return fmt.Errorf("idist: Insert dimension %d, want %d", got, want)
}

// outlierPartition returns the index of the outlier partition, creating one
// anchored at p when the build produced none.
func (idx *Index) outlierPartition(p []float64) int {
	for pi := range idx.parts {
		if idx.parts[pi].sub == nil {
			return pi
		}
	}
	centroid := make([]float64, len(p))
	copy(centroid, p)
	idx.parts = append(idx.parts, partition{centroid: centroid})
	return len(idx.parts) - 1
}
