package idist

import (
	"time"

	"mmdr/internal/index"
	"mmdr/internal/pool"
)

// Batch queries fan a workload of independent searches across a worker
// pool. The search read path touches the SoA layout and the partition
// geometry — immutable under queries — plus the attached cost Sink, which
// is the one piece of shared mutable state. With workers > 1 the Sink must
// therefore be goroutine-safe (AtomicCounter) or nil; a plain Counter is
// only safe at workers <= 1.
//
// Queries are split into contiguous chunks, one worker each. Every worker
// cuts its chunk into tiles of batchTile queries and each partition scan
// serves a whole tile from one pass over the partition's block (see
// fused.go) — the single-core win of batching. A batch allocates only the
// result slices.
//
// Results land at the same position as their query, so out[i] is exactly
// what the corresponding single-query call would have returned — bit for
// bit, at every worker count.

// BatchKNN answers len(queries) KNN queries using at most workers
// goroutines (workers <= 0 selects runtime.NumCPU()).
//
//mmdr:hotpath budget pinned by alloc_test: 2 + one result slice per query
func (idx *Index) BatchKNN(queries [][]float64, k, workers int) [][]index.Neighbor {
	out := make([][]index.Neighbor, len(queries))
	if k <= 0 {
		return out
	}
	ops := idx.ops
	start := time.Now()
	pool.Chunks(pool.Workers(workers), len(queries), func(w, lo, hi int) {
		bs := idx.getBatchScratch()
		defer idx.putBatchScratch(bs)
		for t := lo; t < hi; t += batchTile {
			te := t + batchTile
			if te > hi {
				te = hi
			}
			if ops == nil {
				idx.knnTile(bs, queries[t:te], k, out[t:te])
				continue
			}
			// The fused pass interleaves the tile's queries, so per-query
			// latency is attributed as the tile average — counts stay one
			// record per query, in the worker's own shard cell.
			ts := time.Now()
			idx.knnTile(bs, queries[t:te], k, out[t:te])
			per := time.Since(ts) / time.Duration(te-t)
			for i := t; i < te; i++ {
				if ops.knn.RecordShard(w, per) {
					idx.captureSlowKNN(queries[i], k, per)
				}
			}
		}
	})
	if ops != nil {
		ops.batchKNN.Record(time.Since(start))
	}
	return out
}

// BatchKNNTrace is BatchKNN with a per-query structured explain: traces[i]
// records the search rounds and partition scans of queries[i].
//
//mmdr:hotpath
func (idx *Index) BatchKNNTrace(queries [][]float64, k, workers int) ([][]index.Neighbor, []*QueryTrace) {
	out := make([][]index.Neighbor, len(queries))
	traces := make([]*QueryTrace, len(queries))
	pool.Chunks(pool.Workers(workers), len(queries), func(_, lo, hi int) {
		sc := idx.getScratch()
		defer idx.putScratch(sc)
		for i := lo; i < hi; i++ {
			traces[i] = &QueryTrace{K: k}
			out[i] = idx.knnInto(sc, queries[i], k, 0, traces[i])
		}
	})
	return out, traces
}

// BatchRange answers len(queries) range queries of radius r using at most
// workers goroutines (workers <= 0 selects runtime.NumCPU()).
//
//mmdr:hotpath
func (idx *Index) BatchRange(queries [][]float64, r float64, workers int) [][]index.Neighbor {
	out := make([][]index.Neighbor, len(queries))
	ops := idx.ops
	start := time.Now()
	pool.Chunks(pool.Workers(workers), len(queries), func(w, lo, hi int) {
		bs := idx.getBatchScratch()
		defer idx.putBatchScratch(bs)
		for t := lo; t < hi; t += batchTile {
			te := t + batchTile
			if te > hi {
				te = hi
			}
			if ops == nil {
				idx.rangeTile(bs, queries[t:te], r, out[t:te])
				continue
			}
			ts := time.Now()
			idx.rangeTile(bs, queries[t:te], r, out[t:te])
			per := time.Since(ts) / time.Duration(te-t)
			for i := t; i < te; i++ {
				ops.rng.RecordShard(w, per)
			}
		}
	})
	if ops != nil {
		ops.batchRange.Record(time.Since(start))
	}
	return out
}
