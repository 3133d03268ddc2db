package idist

import (
	"math"

	"mmdr/internal/index"
)

// quantReservoir accumulates the ADC candidate estimates of one quantized
// query. It replaces a per-row top-k heap with a flat buffer of capacity
// 2k: an admitted estimate is a plain append, and only when the buffer
// fills does a deterministic quickselect compact it back to the k smallest,
// refreshing the admission bound. Estimate accumulation is the quantized
// scan's hottest edge — rows arrive roughly in distance order, so a heap
// absorbs a sift for nearly every early row — and the reservoir turns those
// ~log k sifts into O(1) appends with O(1) amortized compaction.
//
// The bound is intentionally stale between compactions: it only ever
// decreases, so admission is never stricter than a live heap's and no row a
// heap would keep is lost. The buffer holds between k and 2k-1 candidates
// at rest; the re-rank simply evaluates all of them, which can only improve
// recall over re-ranking exactly k. Determinism: appends happen in row scan
// order (the same at every tile shape) and the quickselect pivot choice
// depends only on the buffer contents, so reservoir states — and therefore
// candidate sets and answers — stay bitwise identical across tile shapes
// and worker counts.
//
// With k clamped to the row count (see the call sites), a budget >= n query
// never fills the buffer: the bound stays +Inf, every scanned row is kept,
// and the degenerate bitwise-exact point of the budget knob is preserved.
type quantReservoir struct {
	items []index.Neighbor // admitted candidates, append order preserved
	k     int              // compaction target (the clamped budget)
	bound float64          // admission bound; +Inf until the first compaction
}

// Reset prepares the reservoir for a new query with compaction target k,
// reusing the buffer when it is already large enough.
func (r *quantReservoir) Reset(k int) {
	r.k = k
	if need := 2 * k; cap(r.items) < need {
		r.items = make([]index.Neighbor, 0, need)
	}
	r.items = r.items[:0]
	r.bound = math.Inf(1)
}

// Len is the number of candidates currently held (k..2k-1 once warm).
func (r *quantReservoir) Len() int { return len(r.items) }

// Kth is the admission bound: +Inf until the first compaction, afterwards
// the k-th smallest estimate as of the latest compaction (never tighter
// than the live k-th, so pruning against it is always safe).
func (r *quantReservoir) Kth() float64 { return r.bound }

// Items exposes the held candidates for the exact re-rank. The slice is
// owned by the reservoir and valid until the next Reset.
func (r *quantReservoir) Items() []index.Neighbor { return r.items }

// Add admits the estimate if it beats the bound; on fill-up the buffer is
// compacted back to the k smallest and the bound refreshed.
//
//mmdr:hotpath append-only accumulation on the quantized scan edge
func (r *quantReservoir) Add(id int, d float64) {
	if d >= r.bound {
		return
	}
	r.items = append(r.items, index.Neighbor{ID: id, Dist: d})
	if len(r.items) >= 2*r.k {
		r.compact()
	}
}

// compact keeps the k smallest-estimate candidates and tightens the bound
// to the new k-th. Runs once per k admitted rows at most.
func (r *quantReservoir) compact() {
	selectSmallest(r.items, r.k)
	r.items = r.items[:r.k]
	r.bound = r.items[r.k-1].Dist
}

// selectSmallest partially orders a so that a[:k] are the k smallest by
// Dist and a[k-1] is the k-th smallest (classic nth_element). Hoare
// partitioning with a median-of-three pivot on fixed positions: wholly
// deterministic in the input, which the bitwise batch/solo equivalence of
// the quantized path relies on.
func selectSmallest(a []index.Neighbor, k int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median of three on lo, mid, hi — order the three in place so
		// a[lo] <= a[mid] <= a[hi], then use the middle as pivot.
		mid := lo + (hi-lo)/2
		if a[mid].Dist < a[lo].Dist {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi].Dist < a[lo].Dist {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi].Dist < a[mid].Dist {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid].Dist
		i, j := lo, hi
		for i <= j {
			for a[i].Dist < pivot {
				i++
			}
			for a[j].Dist > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] <= pivot <= a[i..hi]; recurse into the side holding the
		// k-th smallest (index k-1).
		if k-1 <= j {
			hi = j
		} else if k-1 >= i {
			lo = i
		} else {
			return
		}
	}
}
