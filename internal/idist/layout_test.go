package idist

import (
	"math"
	"runtime/debug"
	"testing"
)

// SoA-layout lockdown. The layout mirrors the tree's leaf level plus the
// writes since the last merge; these tests pin down that (a) a merged
// layout mirrors the tree exactly, (b) the fused batch kernels running over
// it are bitwise equivalent to the frozen reference and the
// sequential-scan oracle, and (c) writes keep it valid: inserts wait in the
// delta, deletes are scored out, and the ⌈√n⌉-th write merges.

// TestLayoutMirrorsTree checks the structural contract on freshly built
// indexes (checkMirrorsTree).
func TestLayoutMirrorsTree(t *testing.T) {
	for name, m := range equivModels(t) {
		checkMirrorsTree(t, name, m.idx)
	}
}

// checkMirrorsTree asserts a merged layout: nothing pending, global keys in
// ascending leaf order, contiguous per-partition spans agreeing with
// partOf, rowOf the exact inverse of the row assignment, and block rows
// bitwise equal to the stored vectors they copy.
func checkMirrorsTree(t *testing.T, name string, idx *Index) {
	t.Helper()
	lay := idx.layout
	if lay.pending != 0 {
		t.Fatalf("%s: %d writes pending", name, lay.pending)
	}
	if len(lay.keys) != idx.tree.Len() {
		t.Fatalf("%s: layout has %d entries, tree %d", name, len(lay.keys), idx.tree.Len())
	}
	if lay.partStart[len(idx.parts)] != len(lay.keys) {
		t.Fatalf("%s: partition spans cover %d entries, want %d",
			name, lay.partStart[len(idx.parts)], len(lay.keys))
	}
	for p := 1; p < len(lay.keys); p++ {
		if lay.keys[p] < lay.keys[p-1] {
			t.Fatalf("%s: layout keys out of order at %d", name, p)
		}
		if lay.leafOf[p] < lay.leafOf[p-1] {
			t.Fatalf("%s: leaf ordinals out of order at %d", name, p)
		}
	}
	for p, rid := range lay.rids {
		pi := int(idx.partOf[rid])
		if p < lay.partStart[pi] || p >= lay.partStart[pi+1] {
			t.Fatalf("%s: rid %d at position %d outside partition %d's span", name, rid, p, pi)
		}
		row := p - lay.partStart[pi]
		if int(lay.rowOf[rid]) != row {
			t.Fatalf("%s: rowOf[%d]=%d, want %d", name, rid, lay.rowOf[rid], row)
		}
		d := lay.dims[pi]
		got := lay.vecs[pi][row*d : (row+1)*d]
		want := idx.storedVec(pi, int(rid))
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: block row for rid %d differs from stored vector at dim %d", name, rid, i)
			}
		}
	}
}

// TestBatchKNNBitIdenticalToReferenceAndOracle extends the equivalence
// lockdown to the fused batch path: per query, BatchKNN must match the
// frozen pre-kernel reference AND the sequential-scan oracle bitwise,
// across every reduction family, at several worker counts and batch sizes
// (full tiles, ragged tails, sub-tile batches).
func TestBatchKNNBitIdenticalToReferenceAndOracle(t *testing.T) {
	for name, m := range equivModels(t) {
		if m.idx.layout == nil {
			t.Fatalf("%s: no layout, batch would not take the fused path", name)
		}
		qs := equivQueries(m.ds, 21, 5150) // 2 full tiles + a 5-query tail
		for _, k := range []int{1, 5, 17} {
			for _, workers := range []int{1, 3} {
				batch := m.idx.BatchKNN(qs, k, workers)
				for qi, q := range qs {
					ref := m.idx.ReferenceKNN(q, k)
					oracle := m.scan.KNN(q, k)
					sameNeighbors(t, name+"/batch-ref", batch[qi], ref)
					sameNeighbors(t, name+"/batch-oracle", batch[qi], oracle)
				}
			}
		}
		// Sub-tile batches exercise the partial-tile edge.
		for _, nq := range []int{1, 3, batchTile} {
			batch := m.idx.BatchKNN(qs[:nq], 5, 1)
			for qi := 0; qi < nq; qi++ {
				sameNeighbors(t, name+"/subtile", batch[qi], m.scan.KNN(qs[qi], 5))
			}
		}
	}
}

// TestBatchRangeBitIdenticalToReferenceAndOracle is the range counterpart.
func TestBatchRangeBitIdenticalToReferenceAndOracle(t *testing.T) {
	for name, m := range equivModels(t) {
		qs := equivQueries(m.ds, 13, 2718)
		for _, r := range []float64{0, 0.05, 0.3, 1.5} {
			batch := m.idx.BatchRange(qs, r, 2)
			for qi, q := range qs {
				ref := m.idx.ReferenceRange(q, r)
				oracle := m.scan.Range(q, r)
				sameNeighbors(t, name+"/batch-ref", batch[qi], ref)
				sameNeighbors(t, name+"/batch-oracle", batch[qi], oracle)
			}
		}
	}
}

// TestLayoutSurvivesWritesAndMerges pins the write contract: Insert and
// Delete keep the layout and its vector blocks (a new row waits in its
// partition's delta, a deleted row's vector turns +Inf), every answer
// stays the live-point oracle's, and the write that brings the pending
// count to ⌈√n⌉ merges into a layout that mirrors the tree again.
func TestLayoutSurvivesWritesAndMerges(t *testing.T) {
	idx, scan := writeFixture(t)
	dead := map[int]bool{}
	qs := equivQueries(idx.ds, 6, 777)
	check := func(label string) {
		t.Helper()
		for _, q := range qs {
			want := liveKNN(scan, q, 9, dead)
			sameNeighbors(t, label+"/knn", idx.KNN(q, 9), want)
			sameNeighbors(t, label+"/batch", idx.BatchKNN([][]float64{q}, 9, 1)[0], want)
			sameNeighbors(t, label+"/range", idx.Range(q, 0.3), liveRange(scan, q, 0.3, dead))
		}
	}

	lay := idx.layout
	mergeAt := int(math.Ceil(math.Sqrt(float64(idx.ds.N))))
	if lay.mergeAt != mergeAt {
		t.Fatalf("merge point %d, want ⌈√%d⌉ = %d", lay.mergeAt, idx.ds.N, mergeAt)
	}
	id, err := idx.Insert(append([]float64(nil), idx.ds.Point(3)...))
	if err != nil {
		t.Fatal(err)
	}
	pi := int(idx.partOf[id])
	if idx.layout != lay || lay.pending != 1 || len(lay.drids[pi]) != 1 || int(lay.drids[pi][0]) != id {
		t.Fatalf("insert did not land in partition %d's delta: pending %d, delta %v", pi, lay.pending, lay.drids[pi])
	}
	check("after insert")

	const victim = 5
	vp, row := int(idx.partOf[victim]), int(lay.rowOf[victim])
	if !idx.Delete(victim) {
		t.Fatalf("Delete(%d) found nothing", victim)
	}
	dead[victim] = true
	d := lay.dims[vp]
	for _, v := range lay.vecs[vp][row*d : (row+1)*d] {
		if !math.IsInf(v, 1) {
			t.Fatalf("deleted row holds %v, want +Inf", v)
		}
	}
	if idx.layout != lay || lay.pending != 2 {
		t.Fatalf("delete replaced the layout or miscounted: pending %d", lay.pending)
	}
	check("after delete")
	for _, nb := range idx.KNN(qs[0], idx.ds.N) {
		if nb.ID == victim {
			t.Fatal("deleted point reachable at k = n")
		}
	}

	// Delete the delta row too, then write until the merge.
	if !idx.Delete(id) {
		t.Fatalf("Delete(%d) of a delta row found nothing", id)
	}
	dead[id] = true
	writes := 3
	for idx.layout == lay {
		if writes >= mergeAt {
			t.Fatalf("no merge after %d writes, merge point %d", writes, mergeAt)
		}
		if _, err := idx.Insert(append([]float64(nil), idx.ds.Point(10+writes)...)); err != nil {
			t.Fatal(err)
		}
		writes++
	}
	if writes != mergeAt {
		t.Fatalf("merged after %d writes, merge point %d", writes, mergeAt)
	}
	checkMirrorsTree(t, "merged", idx)
	check("after merge")
}

// TestBatchRangeAllocationBudget pins the fused range path's allocation
// budget the way alloc_test.go pins the others: at workers=1 a batch costs
// the outer result slice, the worker closure's capture record, and one
// exact-size result copy per non-empty query.
func TestBatchRangeAllocationBudget(t *testing.T) {
	idx, q := withAllocFixture(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = q
	}
	const r = 0.4
	for _, res := range idx.BatchRange(queries, r, 1) { // warm pools, grow rangeBufs
		if len(res) == 0 {
			t.Fatal("fixture radius matches nothing; pick a radius with hits")
		}
	}
	budget := float64(2 + len(queries))
	if n := testing.AllocsPerRun(50, func() { idx.BatchRange(queries, r, 1) }); n != budget {
		t.Fatalf("BatchRange(workers=1) allocated %.1f objects per batch, budget is exactly %.0f", n, budget)
	}
}
