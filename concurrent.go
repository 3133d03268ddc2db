package mmdr

import "sync"

// ConcurrentIndex wraps an Index for concurrent use: KNN and Range run
// under a shared read lock (many in flight at once), while Insert and
// Delete take the write lock. Writes update the layout that readers scan
// (and every ⌈√n⌉ of them merge it, see Index), so they must exclude
// readers; the structure is read-mostly, so this wrapper is the pragmatic
// production pattern — queries scale out, maintenance serializes.
//
// Cost counters attached via WithCostCounter are atomic, so they may stay
// attached while queries run concurrently through this wrapper. Insert
// grows the model's backing data, so Model methods that read it (Point,
// Validate) must not run concurrently with writers — snapshot what you need
// before going concurrent, or route every access through this wrapper.
type ConcurrentIndex struct {
	mu  sync.RWMutex
	idx *Index
}

// Concurrent wraps idx for concurrent use.
func Concurrent(idx *Index) *ConcurrentIndex {
	return &ConcurrentIndex{idx: idx}
}

// KNN returns the k nearest neighbors of q. Safe for concurrent use.
func (c *ConcurrentIndex) KNN(q []float64, k int) []Neighbor {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.KNN(q, k)
}

// KNNTrace returns the k nearest neighbors of q plus the structured explain
// of the search. Safe for concurrent use.
func (c *ConcurrentIndex) KNNTrace(q []float64, k int) ([]Neighbor, *KNNTrace, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.KNNTrace(q, k)
}

// Range returns all points within r of q. Safe for concurrent use.
func (c *ConcurrentIndex) Range(q []float64, r float64) ([]Neighbor, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.Range(q, r)
}

// Insert adds a point. Safe for concurrent use; serializes with other
// writers and excludes readers.
func (c *ConcurrentIndex) Insert(p []float64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.Insert(p)
}

// Delete removes point id. Safe for concurrent use.
func (c *ConcurrentIndex) Delete(id int) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.Delete(id)
}

// Name identifies the underlying scheme.
func (c *ConcurrentIndex) Name() string { return c.idx.Name() }
