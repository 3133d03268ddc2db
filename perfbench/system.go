package main

import (
	"fmt"
	"net/http"
	"time"

	"mmdr"
	"mmdr/internal/dataset"
	"mmdr/internal/metrics"
	"mmdr/internal/serve"
)

// Fixed shape of the system under test.
const (
	// quantBlocks and quantBudget are the batch-approx operating point: a
	// Blocks=2 quantizer at budget 13×k, the recall≈0.97 point of
	// BENCH_approx.json.
	quantBlocks = 2
	quantBudget = 13 * k
	// serveShards matches cmd/mmdrserve run with -shards 2 (one replica per
	// core); Workers stays 1, the mmdrserve default.
	serveShards = 2
)

// setupKind selects what "ready to answer" means for a workload.
type setupKind int

const (
	setupExact  setupKind = iota // reduce + index build
	setupApprox                  // reduce + quantizer training + index build
	setupServe                   // reduce + serve.New + Start
)

// system is one set-up instance of the system under test.
type system struct {
	model *mmdr.Model
	idx   *mmdr.Index   // batch-*: the direct index
	srv   *serve.Server // serve-*: the in-process server
	url   string        // serve-*: http://host:port
}

// close stops the server, if any, and waits for its goroutines.
func (s *system) close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// reduce fits the model the way every workload does: MMDR with the
// collection's fixed reduction seed and default parallelism.
func reduce(ds *dataset.Dataset) (*mmdr.Model, error) {
	return mmdr.ReduceDataset(ds, mmdr.WithSeed(collectionSeed))
}

// setup builds one system from ds through public entry points only, with
// each step in a span under parent. The caller times the whole call.
func setup(kind setupKind, ds *dataset.Dataset, tr *tracer, parent int64) (*system, error) {
	sys := &system{}
	var err error
	if _, err = tr.timed("core.ReduceDataset", parent, func() error {
		sys.model, err = reduce(ds)
		return err
	}); err != nil {
		return nil, fmt.Errorf("reduce: %w", err)
	}
	if kind == setupApprox {
		if _, err = tr.timed("quant.TrainQuantizer", parent, func() error {
			return sys.model.TrainQuantizer(mmdr.QuantizeConfig{Blocks: quantBlocks})
		}); err != nil {
			return nil, err
		}
	}
	if kind != setupServe {
		if _, err = tr.timed("idist.NewIndex", parent, func() error {
			sys.idx, err = sys.model.NewIndex(mmdr.WithParallelism(1))
			return err
		}); err != nil {
			return nil, fmt.Errorf("index build: %w", err)
		}
		return sys, nil
	}
	if _, err = tr.timed("serve.New", parent, func() error {
		sys.srv, err = serve.New(sys.model, serve.Options{Shards: serveShards, Workers: 1, Metrics: metrics.NewRegistry()})
		return err
	}); err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	if _, err = tr.timed("serve.Start", parent, func() error {
		addr, err := sys.srv.Start("127.0.0.1:0")
		if err == nil {
			sys.url = "http://" + addr.String()
		}
		return err
	}); err != nil {
		sys.srv.Close() //nolint:errcheck — already failing
		return nil, fmt.Errorf("serve.Start: %w", err)
	}
	return sys, nil
}

// setupTimes sets the system up reps times from fresh copies of the
// collection and returns the last system, the model of the first
// (discarded) one, and every repetition's setup seconds and memory delta.
// The first model backs the gates' reference index: its server, if any,
// is closed — every server goroutine has exited — before it is reused.
func setupTimes(kind setupKind, in *inputs, reps int, tr *tracer) (sys *system, spare *mmdr.Model, secs, mem []float64, err error) {
	for r := 0; r < reps; r++ {
		ds := in.dataset()
		before := liveHeapMB()
		root := tr.begin("setup", 0, int64(r))
		start := time.Now()
		s, err := setup(kind, ds, tr, root)
		elapsed := time.Since(start)
		tr.end(root)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		secs = append(secs, elapsed.Seconds())
		mem = append(mem, liveHeapMB()-before)
		if r == reps-1 {
			return s, spare, secs, mem, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, nil, nil, err
		}
		if spare == nil {
			spare = s.model
		}
	}
	return nil, nil, nil, nil, fmt.Errorf("no setup repetitions")
}

// newClient returns an HTTP client that holds one keep-alive connection:
// the load generator gives each of its connections its own client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}
