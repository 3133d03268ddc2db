package btree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mmdr/internal/iostat"
)

// collect runs a RangeBetween scan and returns the visited rids in order.
func collect(t *Tree, lo, hi float64, exLo, exHi bool) []uint32 {
	var out []uint32
	t.RangeBetween(lo, hi, exLo, exHi, func(_ float64, rid uint32) bool {
		out = append(out, rid)
		return true
	})
	return out
}

func TestRangeBetweenBoundFlags(t *testing.T) {
	tr := New(64, nil)
	// Duplicate runs at both boundaries, spanning multiple leaves.
	keys := []float64{1, 2, 2, 2, 3, 4, 5, 5, 5, 5, 6, 7}
	for i, k := range keys {
		tr.Insert(k, uint32(i))
	}
	cases := []struct {
		lo, hi     float64
		exLo, exHi bool
		want       int
	}{
		{2, 5, false, false, 9}, // [2,5]: three 2s + 3 + 4 + four 5s
		{2, 5, true, false, 6},  // (2,5]
		{2, 5, false, true, 5},  // [2,5)
		{2, 5, true, true, 2},   // (2,5): just 3 and 4
		{2, 2, false, false, 3}, // degenerate inclusive point
		{2, 2, true, false, 0},  // degenerate with any exclusion is empty
		{2, 2, false, true, 0},
		{0, 10, false, false, len(keys)},
		{7, 7, false, false, 1},
		{7, 9, true, false, 0}, // lo sits on the max key, excluded
	}
	for _, c := range cases {
		got := collect(tr, c.lo, c.hi, c.exLo, c.exHi)
		if len(got) != c.want {
			t.Fatalf("RangeBetween(%v,%v,exLo=%v,exHi=%v) visited %d entries, want %d",
				c.lo, c.hi, c.exLo, c.exHi, len(got), c.want)
		}
	}
}

// Regression for the iDistance annulus re-scan: a key sitting EXACTLY on a
// previous scan's edge must be seen exactly once when the annulus grows in
// steps that reuse the edge as the next scan's boundary. The former
// epsilon-based re-scan ([edge+1e-15, hi]) could skip such a key (if the
// epsilon jumped past it) or double-count it (if the first scan's hi already
// included it and the epsilon underflowed at large magnitudes, where
// edge+1e-15 == edge).
func TestRangeBetweenAnnulusRescanAtExactEdge(t *testing.T) {
	tr := New(64, nil)
	// Keys exactly at the scan edges, including a large-magnitude key where
	// adding 1e-15 is a no-op in float64.
	big := float64(1 << 40)
	keys := []float64{0.5, 1.0, 1.0, 1.5, 2.0, 2.5, big, big + 0.25}
	for i, k := range keys {
		tr.Insert(k, uint32(i))
	}

	seen := map[uint32]int{}
	scan := func(lo, hi float64, exLo bool) {
		tr.RangeBetween(lo, hi, exLo, false, func(_ float64, rid uint32) bool {
			seen[rid]++
			return true
		})
	}
	// Growing annulus, edges landing exactly on stored keys: [0,1], (1,2],
	// (2, big], (big, big+1].
	scan(0, 1.0, false)
	scan(1.0, 2.0, true)
	scan(2.0, big, true)
	scan(big, big+1, true)

	for i := range keys {
		if n := seen[uint32(i)]; n != 1 {
			t.Fatalf("key %v (rid %d) visited %d times, want exactly 1", keys[i], i, n)
		}
	}

	// The epsilon hack demonstrably breaks at big magnitudes: this is the
	// behaviour the flags replace.
	if big+1e-15 != big {
		t.Fatalf("test premise: 1e-15 must underflow at magnitude %v", float64(big))
	}
}

// Property: RangeBetween with random bounds equals filtering the sorted key
// list with the same predicates.
func TestRangeBetweenMatchesFilterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tr := New(48, nil)
	keys := make([]float64, 500)
	for i := range keys {
		// Coarse grid so duplicates and exact boundary hits are common.
		keys[i] = float64(rng.Intn(40)) / 4
		tr.Insert(keys[i], uint32(i))
	}
	sorted := append([]float64(nil), keys...)
	sort.Float64s(sorted)
	for trial := 0; trial < 300; trial++ {
		lo := float64(rng.Intn(44)-2) / 4
		hi := lo + float64(rng.Intn(20))/4
		exLo, exHi := rng.Intn(2) == 1, rng.Intn(2) == 1
		want := 0
		for _, k := range sorted {
			if (k > lo || (!exLo && k == lo)) && (k < hi || (!exHi && k == hi)) {
				want++
			}
		}
		got := collect(tr, lo, hi, exLo, exHi)
		if len(got) != want {
			t.Fatalf("trial %d: RangeBetween(%v,%v,%v,%v) = %d entries, want %d",
				trial, lo, hi, exLo, exHi, len(got), want)
		}
		// Visited keys must be non-decreasing and within bounds.
		prev := lo
		for _, rid := range got {
			k := keys[rid]
			if k < prev {
				t.Fatalf("trial %d: out-of-order key %v after %v", trial, k, prev)
			}
			prev = k
		}
	}
}

// WalkLeaves reproduces the exact global leaf order (the concatenation of
// RangeBetween over the full key space), reports ordinals densely from 0,
// and charges nothing.
func TestWalkLeavesMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ctr iostat.Counter
	tr := New(48, &ctr)
	entries := make([]Entry, 300)
	for i := range entries {
		entries[i] = Entry{Key: float64(rng.Intn(50)), RID: uint32(i)}
	}
	tr.BulkLoad(entries, 0.9)
	ctr.Reset()

	var wantK []float64
	var wantR []uint32
	tr.RangeBetween(0, 50, false, false, func(k float64, rid uint32) bool {
		wantK = append(wantK, k)
		wantR = append(wantR, rid)
		return true
	})
	scanCost := ctr

	ctr.Reset()
	var gotK []float64
	var gotR []uint32
	next := 0
	tr.WalkLeaves(func(ord int, keys []float64, rids []uint32) bool {
		if ord != next {
			t.Fatalf("leaf ordinal %d, want %d", ord, next)
		}
		next++
		gotK = append(gotK, keys...)
		gotR = append(gotR, rids...)
		return true
	})
	if ctr != (iostat.Counter{}) {
		t.Fatalf("WalkLeaves charged the counter: %+v", ctr)
	}
	if scanCost == (iostat.Counter{}) {
		t.Fatal("premise: the charged full scan must have counted something")
	}
	if !reflect.DeepEqual(wantK, gotK) || !reflect.DeepEqual(wantR, gotR) {
		t.Fatalf("WalkLeaves order diverges from full range scan: %d vs %d entries", len(gotR), len(wantR))
	}
	if next != tr.LeafPages() {
		t.Fatalf("walked %d leaves, LeafPages reports %d", next, tr.LeafPages())
	}
}
