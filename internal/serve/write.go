package serve

import (
	"fmt"
	"io"
	"time"

	"mmdr"
)

// write runs apply in the caller under the index write lock. The write
// holds one of QueueDepth slots while it waits for the lock and runs, and
// is rejected (ErrOverloaded) when every slot is taken.
func (s *Server) write(apply func()) error {
	if !s.begin() {
		return ErrClosed
	}
	defer s.end()
	select {
	case s.writeSlots <- struct{}{}:
	default:
		inc(s.met.rejected)
		return ErrOverloaded
	}
	defer func() { <-s.writeSlots }()
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	apply()
	return nil
}

// Insert adds a point to the index and returns its row id.
func (s *Server) Insert(p []float64) (int, error) {
	start := time.Now()
	if err := s.checkDim(p); err != nil {
		return 0, err
	}
	var id int
	var err error
	if werr := s.write(func() {
		if id, err = s.idx.Insert(p); err == nil {
			s.points.Add(1)
			s.publishGauges()
		}
	}); werr != nil {
		return 0, werr
	}
	record(s.met.ins, start)
	if err != nil {
		inc(s.met.errs)
		return 0, err
	}
	return id, nil
}

// Delete removes point id from the index; found reports whether the point
// was indexed.
func (s *Server) Delete(id int) (bool, error) {
	start := time.Now()
	var found bool
	var err error
	if werr := s.write(func() {
		if found, err = s.idx.Delete(id); found {
			s.points.Add(-1)
			s.publishGauges()
		}
	}); werr != nil {
		return false, werr
	}
	record(s.met.del, start)
	if err != nil {
		inc(s.met.errs)
		return false, err
	}
	return found, nil
}

// newIndex builds a serving index over model at the configured intra-tile
// parallelism, attached to the server's metrics registry.
func (s *Server) newIndex(model *mmdr.Model) (*mmdr.Index, error) {
	idx, err := model.NewIndex(mmdr.WithParallelism(s.opts.Workers))
	if err != nil {
		return nil, fmt.Errorf("serve: building index: %w", err)
	}
	if s.opts.Metrics != nil {
		idx.SetRuntimeMetrics(s.opts.Metrics)
	}
	return idx, nil
}

// Reload hot-swaps the serving model: the new index is built entirely off
// to the side (queries keep flowing against the old one), then swapped in
// together with the model identity under the write lock. Every tile runs
// against exactly one index. Writes applied before the swap are
// superseded wholesale; the new model is the new truth. A reload takes no
// write slot: admission backpressure is for cheap requests, not for an
// index already built.
//
// The server owns the model afterwards.
func (s *Server) Reload(model *mmdr.Model) error {
	start := time.Now()
	if !s.begin() {
		return ErrClosed
	}
	defer s.end()
	idx, err := s.newIndex(model)
	if err != nil {
		return err
	}
	s.idxMu.Lock()
	s.idx = idx
	s.dim.Store(int64(model.Dim()))
	s.points.Store(int64(model.N()))
	s.gen.Add(1)
	s.publishGauges()
	s.idxMu.Unlock()
	record(s.met.reload, start)
	return nil
}

// ReloadFrom reads a model (mmdr.Save format) from r and hot-swaps it in.
func (s *Server) ReloadFrom(r io.Reader) error {
	model, err := mmdr.Load(r)
	if err != nil {
		return err
	}
	return s.Reload(model)
}
