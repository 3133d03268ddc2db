// Package serve is the query-serving subsystem: a sharded, coalescing
// front end that turns the mmdr library into a service. One shared index
// answers every request:
//
//   - The server holds one *mmdr.Index behind one sync.RWMutex. Read tiles
//     run under the read lock, so the shards' tiles run side by side;
//     Insert, Delete and Reload run under the write lock.
//   - Read requests are dispatched round-robin to N shard workers, one
//     goroutine each. A worker drains its queue greedily into a pending
//     tile and flushes it into the fused BatchKNN/BatchRange engine when
//     the tile fills or the queue runs dry. Requests that arrive while a
//     tile runs wait in the queue and form the next tile, so tiles fill
//     under load and a lone request never waits on a timer.
//   - Admission control is a bounded credit count per shard for reads and
//     a semaphore of QueueDepth slots for writes; when they are exhausted
//     the request is rejected immediately (HTTP 429) instead of growing
//     unbounded in-flight state.
//   - Hot reload builds the new index off to the side, then swaps it in
//     under the write lock: every tile runs entirely against one index,
//     never a mix.
//
// Close drains in reverse admission order: new requests are refused, the
// HTTP layer quiesces, in-flight requests finish against live workers,
// and only then do the workers exit. internal/verify's leak and watchdog
// helpers hold this package to that contract under `-race`
// (`make racegate`).
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mmdr"
	"mmdr/internal/metrics"
)

// Defaults for Options zero values.
const (
	DefaultQueueDepth = 256
	DefaultMaxBatch   = 8 // matches the fused engine's batch tile
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrOverloaded means every admission queue was full (HTTP 429).
	ErrOverloaded = errors.New("serve: overloaded, request rejected")
	// ErrClosed means the server is shutting down (HTTP 503).
	ErrClosed = errors.New("serve: server closed")
)

// Options configures a Server.
type Options struct {
	// Shards is the number of coalescing workers, one goroutine each, that
	// share the index. 0 selects 1. More shards let more read tiles run at
	// once.
	Shards int
	// QueueDepth bounds each shard's admitted reads and the writes waiting
	// for the index; beyond it requests are rejected (ErrOverloaded). 0
	// selects DefaultQueueDepth.
	QueueDepth int
	// MaxBatch is the coalescing tile: a shard flushes its pending batch
	// to the fused engine when this many compatible requests are buffered.
	// 0 selects DefaultMaxBatch.
	MaxBatch int
	// Workers bounds the intra-shard parallelism of one flushed batch
	// (the BatchKNN worker count). 0 selects 1 — the shard itself is the
	// unit of parallelism.
	Workers int
	// Metrics, when non-nil, receives per-endpoint latency histograms,
	// admission counters, and the index's per-operation instruments.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// opKind discriminates queued reads.
type opKind uint8

const (
	opKNN opKind = iota
	opRange
)

// request is one queued read. done is buffered (capacity 1) so a worker
// can always respond without blocking, even if the waiter is gone.
type request struct {
	kind opKind
	q    []float64 // query vector
	k    int       // knn
	r    float64   // range radius

	done chan response
}

type response struct {
	neighbors []mmdr.Neighbor
	err       error
}

// Server is a running sharded query server. Create with New, stop with
// Close. All exported methods are safe for concurrent use.
type Server struct {
	opts Options

	// Admission gate: closing flips under mu; begin/end bracket every
	// in-flight request so Close can drain before stopping workers.
	mu       sync.RWMutex
	closing  bool
	inflight sync.WaitGroup
	closed   chan struct{} // closed when shutdown completes

	// idxMu guards idx: read tiles hold it shared, Insert, Delete and
	// Reload exclusively. dim, points and gen change only under the write
	// lock, together with idx; they are atomics so admission checks and
	// Stats read them without queueing behind a writer.
	idxMu  sync.RWMutex
	idx    *mmdr.Index
	dim    atomic.Int64
	points atomic.Int64
	gen    atomic.Int64

	// writeSlots admits writes: a write holds a slot while it waits for
	// and runs under the write lock, and a full semaphore rejects.
	writeSlots chan struct{}

	shards []*shard
	next   atomic.Uint64 // round-robin read dispatch cursor
	stop   chan struct{} // tells workers to exit
	wg     sync.WaitGroup

	met serveMetrics

	httpMu sync.Mutex
	hsrv   *httpServer // non-nil once Start ran
}

// serveMetrics caches the per-endpoint instruments (nil-safe: a Server
// without a registry records nothing).
type serveMetrics struct {
	knn, rng, ins, del, reload *metrics.Op
	rejected, errs             *metrics.Counter
	batches, batchedQueries    *metrics.Counter
	flushFull                  *metrics.Counter
	shardsG, genG, pointsG     *metrics.Gauge
}

func newServeMetrics(reg *metrics.Registry) serveMetrics {
	if reg == nil {
		return serveMetrics{}
	}
	return serveMetrics{
		knn:            reg.Op("serve:knn"),
		rng:            reg.Op("serve:range"),
		ins:            reg.Op("serve:insert"),
		del:            reg.Op("serve:delete"),
		reload:         reg.Op("serve:reload"),
		rejected:       reg.Counter("serve:rejected"),
		errs:           reg.Counter("serve:errors"),
		batches:        reg.Counter("serve:batches"),
		batchedQueries: reg.Counter("serve:batched_queries"),
		flushFull:      reg.Counter("serve:flush_full"),
		shardsG:        reg.Gauge("serve:shards"),
		genG:           reg.Gauge("serve:generation"),
		pointsG:        reg.Gauge("serve:points"),
	}
}

// New builds the server's index over model and starts the shard workers.
// The server owns the model afterwards — do not query or mutate it
// directly.
func New(model *mmdr.Model, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:       opts,
		closed:     make(chan struct{}),
		writeSlots: make(chan struct{}, opts.QueueDepth),
		stop:       make(chan struct{}),
		met:        newServeMetrics(opts.Metrics),
	}
	idx, err := s.newIndex(model)
	if err != nil {
		return nil, err
	}
	s.idx = idx
	s.dim.Store(int64(model.Dim()))
	s.points.Store(int64(model.N()))
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{queue: make(chan *request, opts.QueueDepth)}
	}
	s.publishGauges()
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.runShard(sh)
	}
	return s, nil
}

// publishGauges copies the live model identity into the gauges.
func (s *Server) publishGauges() {
	if s.met.shardsG == nil {
		return
	}
	s.met.shardsG.Set(int64(len(s.shards)))
	s.met.genG.Set(s.gen.Load())
	s.met.pointsG.Set(s.points.Load())
}

// record accounts one endpoint latency (nil-safe).
func record(op *metrics.Op, start time.Time) {
	if op != nil {
		op.Record(time.Since(start))
	}
}

func inc(c *metrics.Counter) {
	if c != nil {
		c.Add(1)
	}
}

// begin admits one request; false means the server is closing.
func (s *Server) begin() bool {
	s.mu.RLock()
	if s.closing {
		s.mu.RUnlock()
		return false
	}
	s.inflight.Add(1)
	s.mu.RUnlock()
	return true
}

func (s *Server) end() { s.inflight.Done() }

// nextShard advances the round-robin read dispatch cursor.
//
//mmdr:hotpath one atomic add per read request
func (s *Server) nextShard(n int) int {
	return int(s.next.Add(1)-1) % n
}

// submitRead dispatches a read to a shard queue, trying every shard once
// starting from the round-robin cursor, and waits for the response.
//
// Admission is bounded by per-shard credits, not channel occupancy: a
// credit is held from enqueue until the answer is sent, so requests the
// worker has already moved into its coalescing buffer still count against
// QueueDepth. Without this the worker would launder the bounded queue
// into unbounded pending state and overload could never reject. Every
// queued request holds a credit, so a credit guarantees a free queue slot
// and the send never blocks.
func (s *Server) submitRead(req *request) (response, error) {
	if !s.begin() {
		return response{}, ErrClosed
	}
	defer s.end()
	n := len(s.shards)
	start := s.nextShard(n)
	depth := int64(s.opts.QueueDepth)
	for i := 0; i < n; i++ {
		sh := s.shards[(start+i)%n]
		if sh.credits.Add(1) > depth {
			sh.credits.Add(-1)
			continue
		}
		sh.queue <- req
		return <-req.done, nil
	}
	inc(s.met.rejected)
	return response{}, ErrOverloaded
}

// checkDim validates a vector against the live model dimensionality.
func (s *Server) checkDim(v []float64) error {
	if d := int(s.dim.Load()); len(v) != d {
		return fmt.Errorf("serve: vector dimension %d, model wants %d", len(v), d)
	}
	return nil
}

// KNN answers the k nearest neighbors of q through the serving path:
// admission, shard dispatch, coalescing, fused batch execution. Answers
// are exactly what the underlying Index.BatchKNN returns.
func (s *Server) KNN(q []float64, k int) ([]mmdr.Neighbor, error) {
	start := time.Now()
	if err := s.checkDim(q); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("serve: k must be positive, got %d", k)
	}
	req := &request{kind: opKNN, q: q, k: k, done: make(chan response, 1)}
	resp, err := s.submitRead(req)
	if err != nil {
		return nil, err
	}
	record(s.met.knn, start)
	if resp.err != nil {
		inc(s.met.errs)
		return nil, resp.err
	}
	return resp.neighbors, nil
}

// Range answers every point within r of q through the serving path.
func (s *Server) Range(q []float64, r float64) ([]mmdr.Neighbor, error) {
	start := time.Now()
	if err := s.checkDim(q); err != nil {
		return nil, err
	}
	if r < 0 {
		return nil, fmt.Errorf("serve: radius must be non-negative, got %g", r)
	}
	req := &request{kind: opRange, q: q, r: r, done: make(chan response, 1)}
	resp, err := s.submitRead(req)
	if err != nil {
		return nil, err
	}
	record(s.met.rng, start)
	if resp.err != nil {
		inc(s.met.errs)
		return nil, resp.err
	}
	return resp.neighbors, nil
}

// Status is a point-in-time view of the server for /statusz.
type Status struct {
	Shards     int   `json:"shards"`
	QueueDepth int   `json:"queue_depth"`
	MaxBatch   int   `json:"max_batch"`
	Workers    int   `json:"workers"`
	Dim        int   `json:"dim"`
	Points     int64 `json:"points"`
	Generation int64 `json:"generation"`
	Closing    bool  `json:"closing"`
}

// Stats snapshots the server's configuration and live model identity.
func (s *Server) Stats() Status {
	s.mu.RLock()
	closing := s.closing
	s.mu.RUnlock()
	return Status{
		Shards:     len(s.shards),
		QueueDepth: s.opts.QueueDepth,
		MaxBatch:   s.opts.MaxBatch,
		Workers:    s.opts.Workers,
		Dim:        int(s.dim.Load()),
		Points:     s.points.Load(),
		Generation: s.gen.Load(),
		Closing:    closing,
	}
}

// Close shuts the server down in drain order: refuse new requests, quiesce
// the HTTP layer, wait for every in-flight request to finish against live
// workers, then stop the workers and wait for them to exit. A worker
// flushes whenever its queue runs dry, so no admitted request waits on
// anything but the tile ahead of it and the index lock. Safe to call
// concurrently and repeatedly; every call returns only after shutdown
// completed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.closed
		return nil
	}
	s.closing = true
	s.mu.Unlock()

	s.closeHTTP()
	s.inflight.Wait()
	close(s.stop)
	s.wg.Wait()
	close(s.closed)
	return nil
}
