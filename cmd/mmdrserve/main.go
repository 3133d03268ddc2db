// Command mmdrserve runs the sharded query server over a reduced model.
//
// Usage:
//
//	mmdrserve -model model.mmdr -addr :8080 -shards 4
//	mmdrserve -synthetic -n 100000 -dim 64 -addr 127.0.0.1:0
//
// The server loads a model (mmdr.Save format) or, with -synthetic,
// reduces a generated correlated-cluster dataset at startup. It serves
// the HTTP API (POST /knn /range /insert /delete /reload, GET /healthz
// /statusz /metrics, /debug/pprof/*) until SIGINT/SIGTERM, then drains:
// in-flight requests finish, workers exit, and the process leaves no
// goroutines behind — the contract `make racegate` verifies.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mmdr"
	"mmdr/internal/datagen"
	"mmdr/internal/metrics"
	"mmdr/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run contains the CLI logic; separated from main so tests can exercise
// it. A non-nil ready channel receives the bound address once the server
// is listening, and the run exits when stop (the signal channel) fires.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("mmdrserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (host:port, :0 for ephemeral)")
		modelPath = fs.String("model", "", "model file to serve (mmdr.Save format)")
		synthetic = fs.Bool("synthetic", false, "reduce a synthetic correlated-cluster dataset instead of loading -model")
		n         = fs.Int("n", 20000, "synthetic dataset size")
		dim       = fs.Int("dim", 64, "synthetic dataset dimensionality")
		seed      = fs.Int64("seed", 1, "synthetic dataset seed")
		shards    = fs.Int("shards", 1, "coalescing workers, one goroutine each")
		queue     = fs.Int("queue", serve.DefaultQueueDepth, "admission queue depth per shard (full queues answer 429)")
		batch     = fs.Int("batch", serve.DefaultMaxBatch, "coalescing tile: flush to the fused engine at this many requests")
		workers   = fs.Int("workers", 1, "intra-shard parallelism of one flushed batch")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	model, err := loadModel(*modelPath, *synthetic, *n, *dim, *seed, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "mmdrserve: %v\n", err)
		return 1
	}

	reg := metrics.NewRegistry()
	srv, err := serve.New(model, serve.Options{
		Shards:     *shards,
		QueueDepth: *queue,
		MaxBatch:   *batch,
		Workers:    *workers,
		Metrics:    reg,
	})
	if err != nil {
		fmt.Fprintf(stderr, "mmdrserve: %v\n", err)
		return 1
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		srv.Close() //nolint:errcheck — already failing
		fmt.Fprintf(stderr, "mmdrserve: %v\n", err)
		return 1
	}
	// Install the handler before announcing readiness: a SIGTERM sent as
	// soon as "serving" appears must drain, not kill the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	st := srv.Stats()
	fmt.Fprintf(stdout, "mmdrserve: serving %d points (dim %d) on http://%s — shards=%d queue=%d batch=%d\n",
		st.Points, st.Dim, bound, st.Shards, st.QueueDepth, st.MaxBatch)
	if ready != nil {
		ready <- bound.String()
	}
	s := <-sig
	fmt.Fprintf(stdout, "mmdrserve: %v — draining\n", s)
	if err := srv.Close(); err != nil {
		fmt.Fprintf(stderr, "mmdrserve: close: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "mmdrserve: drained, bye")
	return 0
}

// loadModel reads a saved model or reduces a synthetic dataset.
func loadModel(path string, synthetic bool, n, dim int, seed int64, stderr io.Writer) (*mmdr.Model, error) {
	switch {
	case path != "" && synthetic:
		return nil, fmt.Errorf("-model and -synthetic are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mmdr.Load(f)
	case synthetic:
		cfg := datagen.CorrelatedConfig{N: n, Dim: dim, NumClusters: 5, SDim: 3,
			VarRatio: 25, ScaleDecay: 0.75, Seed: seed}
		ds, _, err := cfg.Generate()
		if err != nil {
			return nil, err
		}
		ds = datagen.Normalize(ds)
		start := time.Now()
		model, err := mmdr.ReduceDataset(ds, mmdr.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "mmdrserve: reduced synthetic n=%d d=%d in %v\n", n, dim, time.Since(start).Round(time.Millisecond))
		return model, nil
	default:
		return nil, fmt.Errorf("need -model <file> or -synthetic")
	}
}
