package idist

import (
	"runtime/debug"
	"testing"

	"mmdr/internal/index"
	"mmdr/internal/quant"
)

// Lockdowns for the quantized scan path. The contract under test:
//
//   1. Budget is the recall knob: recall@k against the seqscan oracle is
//      monotone non-decreasing in the candidate budget, and budget >= n
//      degenerates to the exact answer bitwise.
//   2. BatchKNNQuantized is bitwise identical to solo KNNQuantized at any
//      worker count and batch shape.
//   3. The path allocates only what it returns (solo: 1, batch: 2+nq).
//   4. The codes survive writes: rows inserted since the last merge are
//      evaluated exactly, deleted rows never become answers, and the merge
//      encodes the inserted rows.
//
// The same file carries the KNNApprox recall lockdown (satellite): recall
// monotone non-decreasing in maxRounds, exact when unbounded.

// quantFixture builds an index with a trained quantizer attached.
func quantFixture(t *testing.T, n int, seed int64) (*Index, *index.SeqScan) {
	t.Helper()
	ds, red := testSetup(t, n, 16, 3, seed)
	set, err := quant.TrainSet(ds, red, quant.Config{Blocks: 4, Bits: 5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds, red, Options{Quant: set})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.HasQuantizer() {
		t.Fatal("quantizer attached at Build but HasQuantizer is false")
	}
	return idx, index.NewSeqScan(ds, red, nil)
}

func recallAt(got, want []index.Neighbor) float64 {
	if len(want) == 0 {
		return 1
	}
	ids := make(map[int]bool, len(want))
	for _, nb := range want {
		ids[nb.ID] = true
	}
	hit := 0
	for _, nb := range got {
		if ids[nb.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func TestKNNQuantizedRecallMonotoneInBudget(t *testing.T) {
	const n, k = 900, 10
	idx, scan := quantFixture(t, n, 71)
	qs := equivQueries(idx.ds, 30, 171)

	budgets := []int{k, 4 * k, 16 * k, n}
	for _, q := range qs {
		oracle := scan.KNN(q, k)
		prev := -1.0
		for _, b := range budgets {
			got, err := idx.KNNQuantized(q, k, b)
			if err != nil {
				t.Fatal(err)
			}
			r := recallAt(got, oracle)
			if r < prev {
				t.Fatalf("recall dropped from %.3f to %.3f when budget grew to %d", prev, r, b)
			}
			prev = r
		}
		// budget >= n keeps every scanned row, so the re-rank sees the full
		// candidate set and the answer is the exact one, bitwise.
		got, err := idx.KNNQuantized(q, k, n)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, "budget>=n", got, oracle)
	}
}

func TestKNNQuantizedAggregateRecall(t *testing.T) {
	const n, k = 900, 10
	idx, scan := quantFixture(t, n, 73)
	qs := equivQueries(idx.ds, 40, 273)

	// A modest budget over this easy clustered fixture should land a high
	// aggregate recall — quantization error is bounded by the re-rank, so
	// the only loss is candidates the ADC estimate misranks out of budget.
	sum := 0.0
	for _, q := range qs {
		got, err := idx.KNNQuantized(q, k, 8*k)
		if err != nil {
			t.Fatal(err)
		}
		sum += recallAt(got, scan.KNN(q, k))
	}
	if avg := sum / float64(len(qs)); avg < 0.9 {
		t.Fatalf("aggregate recall@%d = %.3f at budget %d, want >= 0.9", k, avg, 8*k)
	}
}

func TestKNNQuantizedErrorsWithoutQuantizer(t *testing.T) {
	ds, red := testSetup(t, 300, 12, 3, 5)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.KNNQuantized(ds.Point(0), 5, 50); err == nil {
		t.Fatal("KNNQuantized without a quantizer should error")
	}
	if _, err := idx.BatchKNNQuantized([][]float64{ds.Point(0)}, 5, 50, 1); err == nil {
		t.Fatal("BatchKNNQuantized without a quantizer should error")
	}
}

func TestSetQuantizerValidatesAndDetaches(t *testing.T) {
	ds, red := testSetup(t, 300, 16, 3, 7)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := quant.TrainSet(ds, red, quant.Config{Blocks: 4, Bits: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.SetQuantizer(set); err != nil {
		t.Fatal(err)
	}
	if !idx.HasQuantizer() {
		t.Fatal("SetQuantizer attached but HasQuantizer is false")
	}
	if _, err := idx.KNNQuantized(ds.Point(0), 5, 50); err != nil {
		t.Fatal(err)
	}
	if err := idx.SetQuantizer(nil); err != nil {
		t.Fatal(err)
	}
	if idx.HasQuantizer() {
		t.Fatal("detached quantizer still reported")
	}

	// A set whose book count disagrees with the partition layout is refused.
	bad := &quant.Set{Blocks: set.Blocks, Bits: set.Bits, Books: set.Books[:1]}
	if err := idx.SetQuantizer(bad); err == nil {
		t.Fatal("mismatched book count accepted")
	}
}

func TestBatchKNNQuantizedMatchesSoloAcrossWorkers(t *testing.T) {
	const n, k, budget = 900, 10, 80
	idx, _ := quantFixture(t, n, 79)
	qs := equivQueries(idx.ds, 37, 379) // odd count: exercises a ragged final tile

	want := make([][]index.Neighbor, len(qs))
	for i, q := range qs {
		out, err := idx.KNNQuantized(q, k, budget)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := idx.BatchKNNQuantized(qs, k, budget, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			sameNeighbors(t, "batch/solo", got[i], want[i])
		}
	}
}

// TestQuantizedCodesSurviveWrites: an insert keeps the code blocks and is
// answered exactly from the delta at any budget, a deleted row never comes
// back even while its code still takes a reservoir slot, and the batch
// path agrees with the solo one throughout.
func TestQuantizedCodesSurviveWrites(t *testing.T) {
	const n, k = 900, 10
	idx, _ := quantFixture(t, n, 83)
	q := idx.ds.Point(3)
	codes := idx.layout.codes

	pt := append([]float64(nil), q...)
	id, err := idx.Insert(pt)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.HasQuantizer() || &idx.layout.codes[0] != &codes[0] {
		t.Fatal("Insert replaced the code blocks")
	}
	// The inserted copy of row 3 ties it at distance 0; at the smallest
	// budget the delta still puts it in the answer, exactly.
	got, err := idx.KNNQuantized(pt, k, k)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, nb := range got {
		if nb.ID == id && nb.Dist == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted row %d missing from the quantized answer %v", id, got)
	}
	batch, err := idx.BatchKNNQuantized([][]float64{pt, idx.ds.Point(40)}, k, 5*k, 2)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := idx.KNNQuantized(pt, k, 5*k)
	if err != nil {
		t.Fatal(err)
	}
	sameNeighbors(t, "batch/solo after insert", batch[0], solo)

	// Deleting row 3 scores it out at every budget.
	if !idx.Delete(3) {
		t.Fatal("Delete(3) found nothing")
	}
	for _, b := range []int{k, 5 * k, n} {
		got, err := idx.KNNQuantized(pt, k, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("budget %d: %d answers, want %d", b, len(got), k)
		}
		for _, nb := range got {
			if nb.ID == 3 {
				t.Fatalf("budget %d: deleted row 3 in the answer", b)
			}
		}
	}
}

// TestRebuildLayoutEncodesInsertedRows: the merge (rebuildLayout) moves
// inserted rows from the delta into the blocks with their codes and keeps
// the codes of the rows that survive it, and the code-path answer at full
// budget still finds the inserted rows. After the merge every row's code is
// a fresh encoding of its stored vector; after SetQuantizer attaches a
// different set, every code is that set's encoding.
func TestRebuildLayoutEncodesInsertedRows(t *testing.T) {
	const n, k = 600, 5
	idx, _ := quantFixture(t, n, 89)
	// Deletes first, so the merge moves the surviving rows to new block
	// positions and the copied codes must follow them.
	for _, id := range []int{0, 7, 123, 450} {
		if !idx.Delete(id) {
			t.Fatalf("Delete(%d) found nothing", id)
		}
	}
	// Insert clones of existing subspace members, so they land in coded
	// partitions, until a write merges.
	var ids []int
	for lay := idx.layout; idx.layout == lay; {
		id, err := idx.Insert(append([]float64(nil), idx.ds.Point(10+len(ids))...))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	lay := idx.layout
	checkCodes(t, "merge", idx, idx.quant)
	for _, id := range ids {
		pi := int(idx.partOf[id])
		if pi >= len(lay.codes) || lay.codes[pi] == nil || lay.rowOf[id] < 0 {
			t.Fatalf("row %d not merged into a coded block", id)
		}
		got, err := idx.KNNQuantized(idx.ds.Point(id), k, idx.ds.N)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, nb := range got {
			if nb.ID == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("inserted row %d missing from full-budget quantized result %v", id, got)
		}
	}

	other, err := quant.TrainSet(idx.ds, idx.red, quant.Config{Blocks: 4, Bits: 5, Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	if checkCodes(t, "old set vs new", idx, other) == 0 {
		t.Fatal("the second set encodes every row as the first does; the re-encode check would be vacuous")
	}
	if err := idx.SetQuantizer(other); err != nil {
		t.Fatal(err)
	}
	if n := checkCodes(t, "SetQuantizer", idx, other); n != 0 {
		t.Fatalf("after SetQuantizer %d rows keep a code the new set does not give them", n)
	}
}

// checkCodes counts the layout's rows whose code differs from set's fresh
// encoding of the row's stored vector. It fails the test on any difference
// when set is the attached quantizer.
func checkCodes(t *testing.T, label string, idx *Index, set *quant.Set) int {
	t.Helper()
	lay := idx.layout
	diff := 0
	for pi, codes := range lay.codes {
		if codes == nil {
			continue
		}
		cb := set.Books[pi]
		ps, pe := lay.partStart[pi], lay.partStart[pi+1]
		want := make([]byte, cb.M)
		for row := 0; row < pe-ps; row++ {
			id := int(lay.rids[ps+row])
			cb.EncodeInto(idx.storedVec(pi, id), want)
			if got := codes[row*cb.M : (row+1)*cb.M]; string(got) != string(want) {
				if set == idx.quant {
					t.Fatalf("%s: row %d (partition %d, block row %d) has code %v, want %v", label, id, pi, row, got, want)
				}
				diff++
			}
		}
	}
	return diff
}

func TestKNNQuantizedAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact budgets only hold without -race")
	}
	idx, _ := quantFixture(t, 900, 17)
	q := idx.ds.Point(5)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := idx.KNNQuantized(q, 10, 100); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() { idx.KNNQuantized(q, 10, 100) })
	if n != 1 {
		t.Fatalf("KNNQuantized allocated %.1f objects per query, budget is exactly 1 (the result slice)", n)
	}
}

func TestBatchKNNQuantizedWorkerAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact budgets only hold without -race")
	}
	idx, _ := quantFixture(t, 900, 17)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = idx.ds.Point(5)
	}
	if _, err := idx.BatchKNNQuantized(queries, 10, 100, 1); err != nil {
		t.Fatal(err)
	}
	budget := float64(2 + len(queries)) // outer slice + worker closure + one result per query
	n := testing.AllocsPerRun(50, func() { idx.BatchKNNQuantized(queries, 10, 100, 1) })
	if n != budget {
		t.Fatalf("BatchKNNQuantized(workers=1) allocated %.1f objects per batch, budget is exactly %.0f", n, budget)
	}
}

// KNNApprox recall lockdown (the online-answering mode): recall against the
// seqscan oracle is monotone non-decreasing in maxRounds, and maxRounds=0
// (unbounded) is the exact search.
func TestKNNApproxRecallMonotoneInRounds(t *testing.T) {
	const k = 10
	ds, red := testSetup(t, 900, 12, 3, 31)
	idx, err := Build(ds, red, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scan := index.NewSeqScan(ds, red, nil)
	qs := equivQueries(ds, 30, 131)
	for _, q := range qs {
		oracle := scan.KNN(q, k)
		prev := -1.0
		for _, rounds := range []int{1, 2, 4, 8, 16} {
			r := recallAt(idx.KNNApprox(q, k, rounds), oracle)
			if r < prev {
				t.Fatalf("KNNApprox recall dropped from %.3f to %.3f at maxRounds=%d", prev, r, rounds)
			}
			prev = r
		}
		sameNeighbors(t, "maxRounds=0", idx.KNNApprox(q, k, 0), oracle)
	}
}
