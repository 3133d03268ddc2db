package mmdr_test

import (
	"bytes"
	"testing"

	"mmdr"
)

// Layout round-trip lockdown at the public API: build → persist → load →
// NewIndex rebuilds the blocked vector layout from scratch, and every query
// path (KNN, Range, fused BatchKNN/BatchRange) over the reloaded index is
// bitwise identical to the original. Then insert/delete churn runs through
// the layout's delta and across its merges, and answers never move.

func flatQueries(data []float64, dim int, rows ...int) []float64 {
	out := make([]float64, 0, len(rows)*dim)
	for _, r := range rows {
		out = append(out, data[r*dim:(r+1)*dim]...)
	}
	return out
}

func sameBatch(t *testing.T, label string, got, want [][]mmdr.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d result sets, want %d", label, len(got), len(want))
	}
	for qi := range want {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("%s query %d: %d results, want %d", label, qi, len(got[qi]), len(want[qi]))
		}
		for i := range want[qi] {
			if got[qi][i].ID != want[qi][i].ID || got[qi][i].Dist != want[qi][i].Dist {
				t.Fatalf("%s query %d rank %d: got (%d, %v), want (%d, %v)", label, qi, i,
					got[qi][i].ID, got[qi][i].Dist, want[qi][i].ID, want[qi][i].Dist)
			}
		}
	}
}

func TestLayoutSurvivesSaveLoadRebuild(t *testing.T) {
	data, dim := testData(t, 900, 12, 2, 431)
	model, err := mmdr.Reduce(data, dim, mmdr.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	origIdx, err := model.NewIndex()
	if err != nil {
		t.Fatal(err)
	}
	const k = 9
	queries := flatQueries(data, dim, 3, 70, 141, 212, 283, 354, 425, 496, 567, 638, 709)
	origBatch, err := origIdx.BatchKNN(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	// The fused batch must agree with the single-query path before we even
	// involve persistence.
	for qi := 0; qi < len(queries)/dim; qi++ {
		solo := origIdx.KNN(queries[qi*dim:(qi+1)*dim], k)
		sameBatch(t, "orig batch-vs-solo", [][]mmdr.Neighbor{origBatch[qi]}, [][]mmdr.Neighbor{solo})
	}
	origRange, err := origIdx.BatchRange(queries, 0.4)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := mmdr.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loadIdx, err := loaded.NewIndex()
	if err != nil {
		t.Fatal(err)
	}
	loadBatch, err := loadIdx.BatchKNN(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	sameBatch(t, "reload batch", loadBatch, origBatch)
	loadRange, err := loadIdx.BatchRange(queries, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	sameBatch(t, "reload range", loadRange, origRange)

	// Churn: each point inserted and deleted again leaves the live set
	// unchanged, so answers must not move — with the writes pending in the
	// layout's delta, and after the ⌈√n⌉-th write merges them (90 writes
	// cross three merges at n = 900).
	for i := 0; i < 45; i++ {
		p := make([]float64, dim)
		copy(p, data[i*dim:(i+1)*dim])
		p[0] += 1e-4
		id, err := loadIdx.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// A near-copy of row 0 is its own nearest neighbor.
			nbs := loadIdx.KNN(p, 1)
			if len(nbs) != 1 || nbs[0].ID != id {
				t.Fatalf("inserted point %d not its own nearest neighbor: %v", id, nbs)
			}
		}
		if _, err := loadIdx.Delete(id); err != nil {
			t.Fatal(err)
		}
		if i == 0 || i == 44 {
			churned, err := loadIdx.BatchKNN(queries, k)
			if err != nil {
				t.Fatal(err)
			}
			sameBatch(t, "churned batch", churned, origBatch)
			churnedRange, err := loadIdx.BatchRange(queries, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			sameBatch(t, "churned range", churnedRange, origRange)
		}
	}
}
