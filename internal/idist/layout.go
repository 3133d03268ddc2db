package idist

import (
	"math"

	"mmdr/internal/quant"
)

// soaLayout is the structure-of-arrays mirror of the B⁺-tree's leaf level:
// every stored entry, in global ascending leaf order, with the partition
// vectors copied into per-partition row-major blocks ordered by that same
// leaf position. An annulus scan over tree keys then reads one contiguous
// block span instead of pointer-chasing a stored vector per entry — the
// partition-contiguous clustered layout the scan-speed literature argues
// for — and a batched scan can serve a whole query tile from one pass over
// the span.
//
// The layout is the index's only read structure, and writes keep it valid
// (the buffer-then-merge shape of the paper's Scalable MMDR, §4.3). Insert
// appends the new row to its partition's exact delta, which every search
// evaluates before its first annulus. Delete overwrites the row's vector
// with +Inf, so every kernel scores it out without a per-row check, and
// results drop deleted ids. When delta rows plus deleted rows reach ⌈√n⌉,
// the write merges: rebuildLayout re-materializes the layout from the tree,
// which stays the authoritative copy. While nothing is pending the search
// paths skip the delta and the filter on one pending == 0 test.
type soaLayout struct {
	// Global leaf-order arrays, parallel: entry p of the scan order has key
	// keys[p], record rids[p], and lives in leaf leafOf[p].
	keys   []float64
	rids   []uint32
	leafOf []int32

	// partStart[pi] is the first global position of partition pi's entries
	// (len nParts+1, partStart[nParts] == len(keys)). Partition key ranges
	// are disjoint and ascending, so each partition owns one contiguous
	// span of the global order.
	partStart []int

	// Per-partition row-major vector blocks: partition pi's entry at global
	// position p is row p-partStart[pi] of vecs[pi], a dims[pi]-wide copy of
	// its stored vector (reduced coordinates for subspace members, the
	// original-space point for outliers).
	vecs [][]float64
	dims []int

	// dens summarizes each partition's members for the fused search's
	// first radius (firstRadius). It is derived from keys, so each merge
	// refreshes it.
	dens []partDensity

	// rowOf maps a record ID to its row within its partition's block
	// (-1 when the record is not in the block; IDs inserted since the merge
	// lie beyond its end). Indexed like partOf/slotOf.
	rowOf []int32

	// codes holds, when a quantizer is attached, partition pi's PQ codes as
	// a contiguous row-major block parallel to vecs[pi]: row r's code is
	// codes[pi][r*M : (r+1)*M] for the partition codebook's M sub-blocks.
	// nil without a quantizer; codes[pi] is nil for a partition the
	// quantizer does not cover (one created by Insert after training), which
	// the quantized scans serve with exact distances instead. A deleted
	// row keeps its code until the merge: it can take a reservoir slot, but
	// its exact re-rank distance is +Inf, so it never becomes an answer.
	codes [][]byte

	// codeSet is the quantizer set that encoded codes (nil without codes).
	// A merge under the same set copies each surviving row's code instead
	// of encoding it again.
	codeSet *quant.Set

	// Per-partition delta: the rows inserted since the last merge, in
	// insertion order. dvecs[pi] is row-major dims[pi]-wide like vecs[pi],
	// drids[pi] holds the rows' record IDs.
	dvecs [][]float64
	drids [][]uint32

	// pending counts delta rows plus deleted rows since the last merge;
	// the write that brings it to mergeAt = ⌈√n⌉ merges.
	pending, mergeAt int
}

// partDensity is one partition's density summary: its member count n, the
// mean distance mean of its members to the reference point, and invDim =
// 1/d for the dimensionality d of the partition's metric.
type partDensity struct {
	n, mean, invDim float64
}

// rebuildLayout materializes the SoA scan layout from the current tree:
// Build calls it once, and every merge (see noteWrite) and SetQuantizer
// call it again. The rebuild walks every entry once — O(n) time and one
// extra copy of the stored vectors — and starts with an empty delta. Not
// safe concurrently with queries (same contract as Insert/Delete;
// ConcurrentIndex callers hold the write lock).
func (idx *Index) rebuildLayout() {
	nParts := len(idx.parts)
	total := idx.tree.Len()
	lay := &soaLayout{
		keys:      make([]float64, 0, total),
		rids:      make([]uint32, 0, total),
		leafOf:    make([]int32, 0, total),
		partStart: make([]int, nParts+1),
		vecs:      make([][]float64, nParts),
		dims:      make([]int, nParts),
		dens:      make([]partDensity, nParts),
		rowOf:     make([]int32, len(idx.partOf)),
		dvecs:     make([][]float64, nParts),
		drids:     make([][]uint32, nParts),
		mergeAt:   max(1, int(math.Ceil(math.Sqrt(float64(total))))),
	}
	for i := range lay.rowOf {
		lay.rowOf[i] = -1
	}

	// Pass 1: capture the global leaf order. Keys ascend and partition key
	// ranges are disjoint, so each partition's entries form one contiguous
	// span of it.
	counts := make([]int, nParts)
	idx.tree.WalkLeaves(func(ord int, keys []float64, rids []uint32) bool {
		for i, rid := range rids {
			counts[idx.partOf[rid]]++
			lay.keys = append(lay.keys, keys[i])
			lay.rids = append(lay.rids, rid)
			lay.leafOf = append(lay.leafOf, int32(ord))
		}
		return true
	})
	for pi := 0; pi < nParts; pi++ {
		ps := lay.partStart[pi]
		lay.partStart[pi+1] = ps + counts[pi]
		if s := idx.parts[pi].sub; s != nil {
			lay.dims[pi] = s.Dr
		} else {
			lay.dims[pi] = idx.ds.Dim
		}
		lay.vecs[pi] = make([]float64, counts[pi]*lay.dims[pi])
		// Keys are pi·c + the member's distance to the reference point.
		pd := partDensity{n: float64(counts[pi]), invDim: 1 / float64(lay.dims[pi])}
		if counts[pi] > 0 {
			base := float64(pi) * idx.c
			var sum float64
			for _, key := range lay.keys[ps : ps+counts[pi]] {
				sum += key - base
			}
			pd.mean = sum / pd.n
		}
		lay.dens[pi] = pd
	}

	// Pass 2: copy each entry's stored vector into its block row. Copies
	// preserve bitwise values, so distances computed from the block equal
	// distances computed from the original storage bit for bit.
	for p, rid := range lay.rids {
		pi := int(idx.partOf[rid])
		row := p - lay.partStart[pi]
		lay.rowOf[rid] = int32(row)
		d := lay.dims[pi]
		copy(lay.vecs[pi][row*d:(row+1)*d], idx.storedVec(pi, int(rid)))
	}

	// Pass 3 (quantizer attached): fill the per-partition code blocks, in
	// the same leaf order. Encoding is a deterministic function of the
	// stored vector and the codebooks, and writes never change a surviving
	// row's vector, so a row the previous layout held in a block keeps the
	// code found there through the old rowOf when the same set encoded it.
	// Only the rows new to the blocks are encoded: the delta a merge folds
	// in, or every row when SetQuantizer attaches a different set. A
	// partition the codebook set does not cover (created by Insert after
	// training) keeps a nil code block and is served exactly by the
	// quantized scans.
	if qs := idx.quant; qs != nil {
		old := idx.layout
		if old == nil || old.codeSet != qs {
			old = nil
		}
		lay.codes = make([][]byte, nParts)
		lay.codeSet = qs
		for pi := 0; pi < nParts; pi++ {
			if pi >= len(qs.Books) {
				continue
			}
			cb := qs.Books[pi]
			if cb == nil || cb.Dim != lay.dims[pi] {
				continue
			}
			var prev []byte
			if old != nil && pi < len(old.codes) {
				prev = old.codes[pi]
			}
			m, d := cb.M, lay.dims[pi]
			ps := lay.partStart[pi]
			block := lay.vecs[pi]
			codes := make([]byte, counts[pi]*m)
			for row := 0; row < counts[pi]; row++ {
				code := codes[row*m : (row+1)*m]
				if rid := lay.rids[ps+row]; prev != nil && int(rid) < len(old.rowOf) && old.rowOf[rid] >= 0 {
					o := int(old.rowOf[rid])
					copy(code, prev[o*m:(o+1)*m])
					continue
				}
				cb.EncodeInto(block[row*d:(row+1)*d], code)
			}
			lay.codes[pi] = codes
		}
	}
	idx.layout = lay
}
