// Package index defines the common KNN-index contract shared by the
// extended iDistance, the Global/Hybrid-tree scheme and the sequential-scan
// baseline, plus the bounded top-k accumulator they all use.
package index

import (
	"math"
	"slices"
)

// Neighbor is one KNN result: the dataset row ID and its distance to the
// query (in whatever representation the index searches).
type Neighbor struct {
	ID   int
	Dist float64
}

// KNNIndex is implemented by every index in the repository.
type KNNIndex interface {
	// KNN returns the k nearest neighbors of q in ascending distance order.
	KNN(q []float64, k int) []Neighbor
	// Name identifies the scheme in experiment tables.
	Name() string
}

// TopK accumulates the k smallest neighbors by (Dist, ID) seen so far using
// a bounded max-heap. The zero value is unusable; create with NewTopK.
type TopK struct {
	k    int
	heap nbrHeap
}

// NewTopK returns an accumulator for the k nearest neighbors.
func NewTopK(k int) *TopK {
	return &TopK{k: k, heap: make(nbrHeap, 0, k+1)}
}

// Reset empties the accumulator and retargets it to k neighbors, keeping the
// backing array so a pooled TopK can be reused across queries without
// allocating.
func (t *TopK) Reset(k int) {
	t.k = k
	t.heap = t.heap[:0]
}

// Add offers a candidate; it is kept only if it ranks ahead of the current
// k-th neighbor in the (Dist, ID) order. Ranking ties by ID makes the kept
// set the k smallest by (Dist, ID) whatever order candidates arrive in, so
// searches that visit rows in different orders agree on which of two
// equidistant points takes the k-th place. The sift operations are inlined
// (not container/heap) so no interface boxing allocates on the query hot
// path.
func (t *TopK) Add(id int, dist float64) {
	if t.k <= 0 {
		return
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, Neighbor{ID: id, Dist: dist})
		t.up(len(t.heap) - 1)
		return
	}
	if ranksBefore(dist, id, t.heap[0]) {
		t.heap[0] = Neighbor{ID: id, Dist: dist}
		t.down(0)
	}
}

// ranksBefore reports whether (dist, id) precedes b in the (Dist, ID)
// order, written as orderings so ties need no float equality test.
func ranksBefore(dist float64, id int, b Neighbor) bool {
	if dist < b.Dist {
		return true
	}
	if dist > b.Dist {
		return false
	}
	return id < b.ID
}

// up sifts element j toward the root of the max-heap.
func (t *TopK) up(j int) {
	h := t.heap
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !ranksBefore(h[i].Dist, h[i].ID, h[j]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down sifts element i toward the leaves of the max-heap.
func (t *TopK) down(i int) {
	h := t.heap
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && ranksBefore(h[j1].Dist, h[j1].ID, h[j2]) {
			j = j2 // right child is the larger
		}
		if !ranksBefore(h[i].Dist, h[i].ID, h[j]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Kth returns the current k-th smallest distance, or +Inf while fewer than
// k candidates have been seen. It is the search-termination radius of the
// iDistance algorithm.
func (t *TopK) Kth() float64 {
	if len(t.heap) < t.k {
		return math.Inf(1)
	}
	return t.heap[0].Dist
}

// Len returns how many neighbors are currently held.
func (t *TopK) Len() int { return len(t.heap) }

// Items returns a view of the accumulated neighbors in internal heap order,
// without allocating or copying. The view is invalidated by the next Add or
// Reset; callers that need distance order use Sorted. Heap order is a
// deterministic function of the Add sequence, so two accumulators fed the
// same candidates in the same order expose identical views.
func (t *TopK) Items() []Neighbor { return t.heap }

// Sorted returns the accumulated neighbors in ascending distance order. The
// returned slice is the only allocation a reused TopK makes per query.
func (t *TopK) Sorted() []Neighbor {
	out := make([]Neighbor, len(t.heap))
	copy(out, t.heap)
	SortNeighbors(out)
	return out
}

// SortNeighbors orders ns ascending by (Dist, ID) in place without
// allocating. Every index implementation sorts results through this one
// helper so tie-breaking is identical across schemes.
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// nbrHeap is a max-heap on (Dist, ID), maintained by TopK.up/TopK.down.
type nbrHeap []Neighbor
