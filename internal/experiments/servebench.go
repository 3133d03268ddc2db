package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mmdr"
	"mmdr/internal/serve"
)

// ServeReport is the machine-readable output of the serving benchmark
// (BENCH_serve.json): end-to-end latency and throughput of the sharded,
// coalescing query server over HTTP, across a shard-count x client-concurrency
// sweep, plus the correctness gate that makes the numbers trustworthy —
// every served answer checked bitwise against direct BatchKNN on an
// identical model.
type ServeReport struct {
	Env   EnvInfo `json:"env"`
	Scale string  `json:"scale"`
	N     int     `json:"n"`
	Dim   int     `json:"dim"`
	K     int     `json:"k"`

	// Server shape under test (queue depth, coalescing tile).
	QueueDepth int `json:"queue_depth"`
	MaxBatch   int `json:"max_batch"`

	// Correctness gate: CorrectnessQueries answers fetched over HTTP, each
	// compared bitwise (IDs and Float64bits of distances) against direct
	// BatchKNN and BatchRange on an identical model. The sweep below is
	// meaningless unless this is true.
	CorrectnessOK      bool `json:"correctness_ok"`
	CorrectnessQueries int  `json:"correctness_queries"`

	// Sweep holds one row per (shards, concurrency) level.
	Sweep []ServePoint `json:"sweep"`
}

// ServePoint is one load level of the sweep.
type ServePoint struct {
	Shards      int     `json:"shards"`
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	Rejected    int     `json:"rejected"`
	QPS         float64 `json:"qps"`
	MeanUS      float64 `json:"mean_us"`
	P50US       float64 `json:"p50_us"`
	P99US       float64 `json:"p99_us"`
}

// LoadResult aggregates one load run against a serving endpoint.
type LoadResult struct {
	Requests int     `json:"requests"`
	Rejected int     `json:"rejected"`
	QPS      float64 `json:"qps"`
	MeanUS   float64 `json:"mean_us"`
	P50US    float64 `json:"p50_us"`
	P99US    float64 `json:"p99_us"`
}

// HTTPLoad drives total /knn requests at the given client concurrency
// against base (e.g. "http://127.0.0.1:8080") and aggregates the
// client-observed latency distribution. 429 responses count as rejected
// (the admission control working), not as latency samples. Queries are
// issued round-robin from the provided workload.
func HTTPLoad(client *http.Client, base string, queries [][]float64, k, concurrency, total int) (LoadResult, error) {
	if concurrency < 1 {
		concurrency = 1
	}
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(serve.KNNRequest{Q: q, K: k})
		if err != nil {
			return LoadResult{}, err
		}
		bodies[i] = b
	}
	var (
		next      atomic.Int64
		rejected  atomic.Int64
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstErr  error
		latencies = make([][]float64, concurrency)
	)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]float64, 0, total/concurrency+1)
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					break
				}
				t0 := time.Now()
				resp, err := client.Post(base+"/knn", "application/json",
					bytes.NewReader(bodies[i%len(bodies)]))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck — drain for keep-alive
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("load: /knn status %d", resp.StatusCode)
					}
					mu.Unlock()
					return
				}
			}
			latencies[w] = lat
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return LoadResult{}, firstErr
	}
	var all []float64
	for _, l := range latencies {
		all = append(all, l...)
	}
	res := LoadResult{
		Requests: total,
		Rejected: int(rejected.Load()),
	}
	if len(all) > 0 {
		sort.Float64s(all)
		var sum float64
		for _, v := range all {
			sum += v
		}
		res.MeanUS = sum / float64(len(all))
		res.P50US = percentile(all, 50)
		res.P99US = percentile(all, 99)
		res.QPS = float64(len(all)) / elapsed.Seconds()
	}
	return res, nil
}

// percentile reads the p-th percentile from a sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// serveBenchQueries samples a query workload from the dataset the model
// was reduced from (every query is a perturbed database point, the
// standard workload of the other benchmarks).
func serveBenchQueries(ds interface{ Point(int) []float64 }, n, count int) [][]float64 {
	queries := make([][]float64, count)
	for i := range queries {
		queries[i] = append([]float64(nil), ds.Point((i*37)%n)...)
	}
	return queries
}

// newLoadClient builds an HTTP client that can keep one connection per
// concurrent worker alive (the default Transport caps idle connections per
// host at 2, which would turn a concurrency sweep into a connection churn
// benchmark).
func newLoadClient(maxConns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
	}}
}

// ServeBench builds a model at the configured scale, serves it through the
// sharded coalescing server over real HTTP on a loopback socket, verifies
// served answers bitwise against the direct engine, then sweeps shard
// count x client concurrency recording client-observed p50/p99 latency and
// QPS.
func ServeBench(c Config) (*ServeReport, error) {
	c = c.withDefaults()
	n, dim := c.sizes()
	ds, err := synthetic(n, dim, 5, 3, 25, c.Seed)
	if err != nil {
		return nil, err
	}
	model, err := mmdr.ReduceDataset(ds, mmdr.WithSeed(c.Seed))
	if err != nil {
		return nil, err
	}
	queries := serveBenchQueries(ds, ds.N, c.NumQueries)

	rep := &ServeReport{
		Env:        CollectEnv(),
		Scale:      string(c.Scale),
		N:          n,
		Dim:        dim,
		K:          c.K,
		QueueDepth: serve.DefaultQueueDepth,
		MaxBatch:   serve.DefaultMaxBatch,
	}

	// Reference answers for the correctness gate, computed before any
	// server owns the model.
	refIdx, err := model.NewIndex(mmdr.WithParallelism(c.Parallelism))
	if err != nil {
		return nil, err
	}
	var flat []float64
	for _, q := range queries {
		flat = append(flat, q...)
	}
	wantKNN, err := refIdx.BatchKNN(flat, c.K)
	if err != nil {
		return nil, err
	}

	shardLevels := []int{1, 2, 4}
	concLevels := []int{1, 4, 16, 64}
	reqs := 4 * c.NumQueries
	if reqs < 400 {
		reqs = 400
	}

	for _, shards := range shardLevels {
		m, err := cloneModelBytes(model)
		if err != nil {
			return nil, err
		}
		srv, err := serve.New(m, serve.Options{Shards: shards, Workers: 1})
		if err != nil {
			return nil, err
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			srv.Close() //nolint:errcheck — already failing
			return nil, err
		}
		base := "http://" + addr.String()
		client := newLoadClient(concLevels[len(concLevels)-1] + 4)

		// Correctness gate, once per shard count: the answer must not
		// depend on which shard served it.
		if err := serveCorrectness(client, base, queries, c.K, wantKNN); err != nil {
			srv.Close() //nolint:errcheck — already failing
			return nil, fmt.Errorf("shards=%d: %w", shards, err)
		}
		rep.CorrectnessQueries += len(queries)

		for _, conc := range concLevels {
			res, err := HTTPLoad(client, base, queries, c.K, conc, reqs)
			if err != nil {
				srv.Close() //nolint:errcheck — already failing
				return nil, err
			}
			rep.Sweep = append(rep.Sweep, ServePoint{
				Shards:      shards,
				Concurrency: conc,
				Requests:    res.Requests,
				Rejected:    res.Rejected,
				QPS:         res.QPS,
				MeanUS:      res.MeanUS,
				P50US:       res.P50US,
				P99US:       res.P99US,
			})
		}
		client.Transport.(*http.Transport).CloseIdleConnections()
		if err := srv.Close(); err != nil {
			return nil, err
		}
	}
	rep.CorrectnessOK = true
	return rep, nil
}

// cloneModelBytes deep-copies a model through its serialized form, so
// each server owns a model of its own.
func cloneModelBytes(m *mmdr.Model) (*mmdr.Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return mmdr.Load(&buf)
}

// serveCorrectness fetches every query's answer over HTTP and compares it
// bitwise against the direct BatchKNN reference.
func serveCorrectness(client *http.Client, base string, queries [][]float64, k int, want [][]mmdr.Neighbor) error {
	for i, q := range queries {
		body, err := json.Marshal(serve.KNNRequest{Q: q, K: k})
		if err != nil {
			return err
		}
		resp, err := client.Post(base+"/knn", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var out serve.NeighborsResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("correctness query %d: %w", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("correctness query %d: status %d", i, resp.StatusCode)
		}
		if len(out.Neighbors) != len(want[i]) {
			return fmt.Errorf("correctness query %d: %d answers, want %d", i, len(out.Neighbors), len(want[i]))
		}
		for j, nb := range out.Neighbors {
			if nb.ID != want[i][j].ID || math.Float64bits(nb.Dist) != math.Float64bits(want[i][j].Dist) {
				return fmt.Errorf("correctness query %d answer %d: served {%d %v}, direct {%d %v} — serving path must be bitwise identical",
					i, j, nb.ID, nb.Dist, want[i][j].ID, want[i][j].Dist)
			}
		}
	}
	return nil
}

// WriteJSON writes the report as indented JSON.
func (r *ServeReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Table renders the report in the experiment-table shape for the CLI.
func (r *ServeReport) Table() *Table {
	t := &Table{
		Name:   "serve",
		Title:  fmt.Sprintf("serving latency/throughput over HTTP (n=%d, d=%d, k=%d, correctness_ok=%v)", r.N, r.Dim, r.K, r.CorrectnessOK),
		Header: []string{"shards", "clients", "qps", "p50 µs", "p99 µs", "rejected"},
	}
	for _, p := range r.Sweep {
		t.AddRow(fmt.Sprintf("%d", p.Shards), fmt.Sprintf("%d", p.Concurrency),
			f2(p.QPS), f2(p.P50US), f2(p.P99US), fmt.Sprintf("%d", p.Rejected))
	}
	return t
}

// runServeBench adapts ServeBench to the registry's Runner shape.
func runServeBench(c Config) (*Table, error) {
	rep, err := ServeBench(c)
	if err != nil {
		return nil, err
	}
	return rep.Table(), nil
}

func init() { registry["serve"] = runServeBench }
