package idist

import (
	"mmdr/internal/index"
	"mmdr/internal/iostat"
)

// queryScratch bundles every per-query buffer the solo exact search needs
// so a single query allocates nothing beyond its returned neighbor slice. A
// scratch is owned by one query at a time: single-query calls borrow one
// from the index's sync.Pool, BatchKNNTrace holds one per worker for a
// whole chunk of queries.
type queryScratch struct {
	idx     *Index
	states  []queryState // per-partition search state
	projBuf []float64    // backing array the states' proj views are carved from
	top     *index.TopK  // KNN accumulator (squared distances)

	// counter is the Sink the query charges: the index's own, or nil for
	// the slow-query capture's re-run, which must not count a query twice.
	counter iostat.Sink

	// Per-scan state.
	q    []float64 // original-space query (outlier partition distances)
	x    []float64 // query-side vector of the scan: the projection or q
	cand int       // candidates evaluated by the current scan

	chunk [rowChunk]float64 // row scores of the scan's current chunk (knnRows)
}

// getScratch returns a ready-to-use scratch sized for the index's current
// partition layout. Pair with putScratch.
func (idx *Index) getScratch() *queryScratch {
	sc, _ := idx.scratchPool.Get().(*queryScratch)
	if sc == nil {
		sc = &queryScratch{idx: idx, top: index.NewTopK(0)}
	}
	sc.counter = idx.counter
	sc.ensure()
	return sc
}

// putScratch returns a scratch to the pool. References into caller data are
// dropped so the pool never pins a query vector.
func (idx *Index) putScratch(sc *queryScratch) {
	sc.q, sc.x = nil, nil
	idx.scratchPool.Put(sc)
}

// ensure sizes the per-partition state for the index's current layout
// (Insert can add an outlier partition after Build) and carves each subspace
// partition's projection view out of the shared backing array.
func (sc *queryScratch) ensure() {
	idx := sc.idx
	n := len(idx.parts)
	if cap(sc.states) < n {
		sc.states = make([]queryState, n)
	}
	sc.states = sc.states[:n]
	sumDr := 0
	for pi := range idx.parts {
		if s := idx.parts[pi].sub; s != nil {
			sumDr += s.Dr
		}
	}
	if cap(sc.projBuf) < sumDr {
		sc.projBuf = make([]float64, sumDr)
	}
	off := 0
	for pi := range idx.parts {
		st := &sc.states[pi]
		if s := idx.parts[pi].sub; s != nil {
			st.proj = sc.projBuf[off : off+s.Dr]
			off += s.Dr
		} else {
			st.proj = nil
		}
	}
}

// beginScan points the scan's query-side vector at partition pi's metric:
// the query's projection for a subspace, the query itself for the outlier
// partition.
func (sc *queryScratch) beginScan(pi int) {
	if sc.idx.parts[pi].sub != nil {
		sc.x = sc.states[pi].proj
	} else {
		sc.x = sc.q
	}
}
