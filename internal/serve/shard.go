package serve

import (
	"sync/atomic"

	"mmdr"
)

// shard is one coalescing worker's request queue plus its pending tile.
// After the worker goroutine starts, the coalescing buffers are touched
// by that goroutine only; the index it queries is shared, under the
// server's read lock.
type shard struct {
	queue chan *request

	// credits counts reads admitted to this shard and not yet answered —
	// queued or parked in the coalescing buffer. Admission caps it at
	// QueueDepth; the worker releases a credit with each answer.
	credits atomic.Int64

	// Coalescing state, owned by the worker. pending holds compatible
	// buffered requests (same kind and parameter); qbuf is the reused flat
	// row-major query buffer handed to the fused batch engine.
	pending []*request
	qbuf    []float64
}

// compatible reports whether req can join the shard's current pending
// batch: same operation, same parameter, same vector length (one
// mismatched-dimension request must error alone, not poison the batch).
func (sh *shard) compatible(req *request) bool {
	if len(sh.pending) == 0 {
		return true
	}
	head := sh.pending[0]
	if req.kind != head.kind || len(req.q) != len(head.q) {
		return false
	}
	if req.kind == opKNN {
		return req.k == head.k
	}
	//mmdr:ignore floatcmp batch compatibility groups by the exact radius the client sent; any tolerance would merge queries with different answers into one fused scan
	return req.r == head.r
}

// gather builds the flat row-major query block of the pending batch into
// dst, reusing its capacity.
//
//mmdr:hotpath per-flush copy into the fused engine's input layout
func gather(dst []float64, pending []*request) []float64 {
	dst = dst[:0]
	for _, r := range pending {
		dst = append(dst, r.q...)
	}
	return dst
}

// runShard is the worker loop: wait for a request, drain the queue
// greedily into the pending tile, and flush once the queue runs dry.
// Requests that arrive while a tile runs queue up and form the next tile,
// so tiles fill under load without a timer. Close stops the workers only
// after every admitted request was answered, so on stop the queue and the
// tile are empty.
func (s *Server) runShard(sh *shard) {
	defer s.wg.Done()
	for {
		select {
		case req := <-sh.queue:
			s.add(sh, req)
		case <-s.stop:
			return
		}
	drain:
		for {
			select {
			case req := <-sh.queue:
				s.add(sh, req)
			default:
				break drain
			}
		}
		s.flushShard(sh)
	}
}

// add appends req to the pending tile, flushing first when req cannot
// join the tile and afterwards when the tile is full.
func (s *Server) add(sh *shard, req *request) {
	if !sh.compatible(req) {
		s.flushShard(sh)
	}
	sh.pending = append(sh.pending, req)
	if len(sh.pending) >= s.opts.MaxBatch {
		inc(s.met.flushFull)
		s.flushShard(sh)
	}
}

// flushShard executes the pending batch against the shared index under
// the read lock and distributes the answers. No-op on an empty batch.
func (s *Server) flushShard(sh *shard) {
	n := len(sh.pending)
	if n == 0 {
		return
	}
	head := sh.pending[0]
	sh.qbuf = gather(sh.qbuf, sh.pending)
	var results [][]mmdr.Neighbor
	var err error
	s.idxMu.RLock()
	if head.kind == opKNN {
		results, err = s.idx.BatchKNN(sh.qbuf, head.k)
	} else {
		results, err = s.idx.BatchRange(sh.qbuf, head.r)
	}
	s.idxMu.RUnlock()
	if s.met.batches != nil {
		s.met.batches.Add(1)
		s.met.batchedQueries.Add(int64(n))
	}
	for i, req := range sh.pending {
		if err != nil {
			req.done <- response{err: err}
		} else {
			req.done <- response{neighbors: results[i]}
		}
		sh.credits.Add(-1)
		sh.pending[i] = nil
	}
	sh.pending = sh.pending[:0]
}
