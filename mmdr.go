// Package mmdr is an adaptive dimensionality-reduction and high-dimensional
// indexing library, reproducing "An Adaptive and Efficient Dimensionality
// Reduction Algorithm for High-Dimensional Indexing" (Jin, Ooi, Shen, Yu,
// Zhou — ICDE 2003).
//
// The pipeline has two stages:
//
//  1. Reduce discovers locally correlated, elliptical clusters with the
//     Multi-level Mahalanobis-based Dimensionality Reduction (MMDR)
//     algorithm and projects each cluster into its own low-dimensional axis
//     system; badly correlated points stay in the original space as
//     outliers. GDR (global PCA) and LDR (Chakrabarti–Mehrotra) baselines
//     are available through options.
//  2. NewIndex builds an extended iDistance index — a single B⁺-tree over
//     all subspaces — answering K-nearest-neighbor queries over the reduced
//     representation.
//
// Quick start:
//
//	model, err := mmdr.Reduce(data, dim, mmdr.WithSeed(42))
//	idx, err := model.NewIndex()
//	neighbors := idx.KNN(query, 10)
//
// Data is flat row-major float64: point i occupies data[i*dim:(i+1)*dim].
package mmdr

import (
	"errors"
	"fmt"
	"math"

	"mmdr/internal/core"
	"mmdr/internal/dataset"
	"mmdr/internal/idist"
	"mmdr/internal/index"
	"mmdr/internal/iostat"
	"mmdr/internal/metrics"
	"mmdr/internal/obs"
	"mmdr/internal/quant"
	"mmdr/internal/query"
	"mmdr/internal/reduction"
)

// Method selects the dimensionality-reduction algorithm.
type Method int

// Available reduction methods.
const (
	// MethodMMDR is the paper's algorithm (default).
	MethodMMDR Method = iota
	// MethodMMDRScalable is the §4.3 stream-based variant for datasets
	// larger than memory.
	MethodMMDRScalable
	// MethodLDR is the Local Dimensionality Reduction baseline.
	MethodLDR
	// MethodGDR is the Global (single PCA) baseline.
	MethodGDR
	// MethodRaw performs no reduction: k-means partitions with every
	// dimension kept. Indexing it yields the original full-dimensional
	// iDistance — lossless answers at higher query cost.
	MethodRaw
)

// String names the method as used in the paper's tables.
func (m Method) String() string {
	switch m {
	case MethodMMDR:
		return "MMDR"
	case MethodMMDRScalable:
		return "MMDR-scalable"
	case MethodLDR:
		return "LDR"
	case MethodGDR:
		return "GDR"
	case MethodRaw:
		return "raw"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// config collects option state.
type config struct {
	method    Method
	params    core.Params
	gdrDim    int
	ldr       reduction.LDR
	pageSize  int
	counter   iostat.Sink
	tracer    obs.Tracer
	metrics   *metrics.Registry
	forcedDim int
	// parallelism is the resolved worker bound (WithParallelism); 0 means
	// the option was never given and all cores are used.
	parallelism int
}

// Option customizes Reduce.
type Option func(*config)

// WithMethod selects the reduction algorithm (default MethodMMDR).
func WithMethod(m Method) Option { return func(c *config) { c.method = m } }

// WithSeed fixes all randomized steps for reproducibility.
func WithSeed(seed int64) Option {
	return func(c *config) { c.params.Seed = seed; c.ldr.Seed = seed }
}

// WithMaxClusters bounds the number of elliptical clusters per clustering
// invocation (the paper's MaxEC, default 10).
func WithMaxClusters(k int) Option {
	return func(c *config) { c.params.MaxEC = k; c.ldr.MaxClusters = k }
}

// WithMaxDim caps the retained dimensionality per subspace (default 20).
func WithMaxDim(d int) Option {
	return func(c *config) { c.params.MaxDim = d; c.ldr.MaxDim = d; c.gdrDim = d }
}

// WithForcedDim forces every subspace to exactly d retained dimensions,
// disabling the per-cluster dimensionality optimization. Used by the
// paper's dimensionality sweeps.
func WithForcedDim(d int) Option { return func(c *config) { c.forcedDim = d } }

// WithBeta sets the projection-distance outlier threshold β (default 0.1).
func WithBeta(beta float64) Option { return func(c *config) { c.params.Beta = beta } }

// WithOutlierBudget caps outlier evictions at the given fraction of N (the
// paper's ξ, default 0.005).
func WithOutlierBudget(xi float64) Option {
	return func(c *config) { c.params.Xi = xi; c.ldr.Xi = xi }
}

// WithStreamFraction sets Scalable MMDR's data-stream size as a fraction of
// N (the paper's ε, default 0.005).
func WithStreamFraction(eps float64) Option { return func(c *config) { c.params.Epsilon = eps } }

// WithPageSize sets the simulated disk page size for index construction
// (default 8192).
func WithPageSize(bytes int) Option { return func(c *config) { c.pageSize = bytes } }

// WithCostCounter attaches a cost counter that accumulates simulated page
// I/O and distance computations across reduction and queries. The counter is
// atomic, so the same counter may stay attached while queries run
// concurrently (e.g. through ConcurrentIndex).
func WithCostCounter(ctr *CostCounter) Option {
	return func(c *config) {
		if ctr == nil {
			return
		}
		c.counter = &ctr.c
		c.params.Counter = &ctr.c
	}
}

// CostCounter mirrors the library's logical cost model: simulated page
// reads/writes and distance computations. All methods are safe for
// concurrent use; the zero value is ready to use.
type CostCounter struct {
	c iostat.AtomicCounter
}

// Reset zeroes the counter.
func (c *CostCounter) Reset() { c.c.Reset() }

// PageIO returns total simulated page reads + writes.
func (c *CostCounter) PageIO() int64 { return c.c.IO() }

// Distances returns the number of distance computations performed.
func (c *CostCounter) Distances() int64 { return c.c.Snapshot().DistanceOps }

// Metrics returns a consistent point-in-time snapshot of every tracked cost.
func (c *CostCounter) Metrics() Metrics { return c.c.Snapshot() }

// String formats the current counts.
func (c *CostCounter) String() string { return c.c.String() }

// MarshalJSON encodes a snapshot of the counts.
func (c *CostCounter) MarshalJSON() ([]byte, error) { return c.c.MarshalJSON() }

// Neighbor is one KNN answer: the row index of the point in the original
// data and its distance in the reduced representation.
type Neighbor = index.Neighbor

// Model is a fitted dimensionality reduction over a dataset.
type Model struct {
	ds     *dataset.Dataset
	result *reduction.Result
	cfg    config
	method string
	quant  *quant.Set // trained product quantizer, nil until TrainQuantizer
}

// Reduce fits a dimensionality-reduction model over n = len(data)/dim
// points of dimension dim (row-major). The data slice is retained by the
// model; do not mutate it afterwards.
func Reduce(data []float64, dim int, opts ...Option) (*Model, error) {
	ds, err := dataset.FromData(dim, data)
	if err != nil {
		return nil, err
	}
	return ReduceDataset(ds, opts...)
}

// ReduceDataset is Reduce over an existing dataset value.
func ReduceDataset(ds *dataset.Dataset, opts ...Option) (*Model, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return reduceWithConfig(ds, cfg)
}

// reduceWithConfig runs the configured reducer over ds.
func reduceWithConfig(ds *dataset.Dataset, cfg config) (*Model, error) {
	if ds == nil || ds.N == 0 {
		return nil, errors.New("mmdr: empty dataset")
	}
	cfg.params.ForcedDim = cfg.forcedDim
	par := resolveParallelism(cfg)
	cfg.params.Parallelism = par
	cfg.ldr.Parallelism = par
	var red reduction.Reducer
	switch cfg.method {
	case MethodMMDR:
		red = core.New(cfg.params)
	case MethodMMDRScalable:
		red = &core.Scalable{Params: cfg.params}
	case MethodLDR:
		l := cfg.ldr
		l.ForcedDim = cfg.forcedDim
		l.Tracer = cfg.tracer
		red = &l
	case MethodRaw:
		red = &reduction.Identity{Clusters: cfg.params.MaxEC, Seed: cfg.params.Seed}
	case MethodGDR:
		d := cfg.gdrDim
		if cfg.forcedDim > 0 {
			d = cfg.forcedDim
		}
		if d <= 0 {
			d = 20
		}
		if d > ds.Dim {
			d = ds.Dim
		}
		red = &reduction.GDR{TargetDim: d, Tracer: cfg.tracer}
	default:
		return nil, fmt.Errorf("mmdr: unknown method %v", cfg.method)
	}
	result, err := red.Reduce(ds)
	if err != nil {
		return nil, err
	}
	return &Model{ds: ds, result: result, cfg: cfg, method: red.Name()}, nil
}

// Method returns the name of the algorithm that produced the model.
func (m *Model) Method() string { return m.method }

// N returns the number of points the model covers.
func (m *Model) N() int { return m.ds.N }

// Dim returns the original dimensionality.
func (m *Model) Dim() int { return m.ds.Dim }

// SubspaceInfo summarizes one discovered subspace.
type SubspaceInfo struct {
	ID         int
	Points     int
	Dim        int     // retained dimensionality d_r
	MPE        float64 // mean projection error of its members
	MaxRadius  float64 // data-sphere radius in reduced coordinates
	MahaRadius float64 // Mahalanobis radius in the original space
}

// Subspaces describes the discovered subspaces.
func (m *Model) Subspaces() []SubspaceInfo {
	out := make([]SubspaceInfo, len(m.result.Subspaces))
	for i, s := range m.result.Subspaces {
		out[i] = SubspaceInfo{
			ID:         s.ID,
			Points:     len(s.Members),
			Dim:        s.Dr,
			MPE:        s.MPE,
			MaxRadius:  s.MaxRadius,
			MahaRadius: s.MahaRadius,
		}
	}
	return out
}

// Outliers returns the row indices kept in the original space.
func (m *Model) Outliers() []int {
	return append([]int(nil), m.result.Outliers...)
}

// AvgDim returns the member-weighted average retained dimensionality.
func (m *Model) AvgDim() float64 { return m.result.Summarize().AvgDim }

// Validate checks the model's structural invariants (every point assigned
// exactly once, orthonormal bases, consistent shapes).
func (m *Model) Validate() error { return m.result.Validate(m.ds.N) }

// Index is a KNN index over a reduced model. The extended iDistance index
// answers every query from one blocked vector layout, which Insert and
// Delete keep valid: a new point joins a small exact delta, a deleted point
// is scored out, and every ⌈√n⌉ writes the index folds them in. Answers
// stay exact throughout.
type Index struct {
	model       *Model
	idx         index.KNNIndex
	maint       *idist.Index // non-nil when the index supports Insert
	parallelism int          // resolved worker bound for batch queries
}

// NewIndex builds the extended iDistance index over the model's subspaces.
func (m *Model) NewIndex(opts ...Option) (*Index, error) {
	cfg := m.cfg
	for _, o := range opts {
		o(&cfg)
	}
	idx, err := idist.Build(m.ds, m.result, idist.Options{
		PageSize: cfg.pageSize,
		Counter:  cfg.counter,
		Tracer:   cfg.tracer,
		Metrics:  cfg.metrics,
		Quant:    m.quant,
	})
	if err != nil {
		return nil, err
	}
	return &Index{model: m, idx: idx, maint: idx, parallelism: resolveParallelism(cfg)}, nil
}

// NewSeqScan builds the sequential-scan baseline over the same reduced
// representation (identical answers, different cost profile).
func (m *Model) NewSeqScan(opts ...Option) *Index {
	cfg := m.cfg
	for _, o := range opts {
		o(&cfg)
	}
	return &Index{model: m, idx: index.NewSeqScan(m.ds, m.result, cfg.counter), parallelism: resolveParallelism(cfg)}
}

// KNN returns the k nearest neighbors of q (length Dim) in the reduced
// representation, ascending by distance.
func (idx *Index) KNN(q []float64, k int) []Neighbor {
	return idx.idx.KNN(q, k)
}

// Name identifies the index scheme.
func (idx *Index) Name() string { return idx.idx.Name() }

// Insert adds a new point to the dataset and the index (extended iDistance
// dynamic insertion, paper §5); the next query sees it. It returns the new
// point's row ID, or an error if the index scheme does not support
// insertion.
func (idx *Index) Insert(p []float64) (int, error) {
	if idx.maint == nil {
		return 0, fmt.Errorf("mmdr: %s index does not support insertion", idx.Name())
	}
	return idx.maint.Insert(p)
}

// Point returns a copy of row i of the model's data.
func (m *Model) Point(i int) []float64 {
	out := make([]float64, m.ds.Dim)
	copy(out, m.ds.Point(i))
	return out
}

// Range returns every point within distance r of q in the reduced
// representation, ascending by distance. Only the extended iDistance index
// supports range queries.
func (idx *Index) Range(q []float64, r float64) ([]Neighbor, error) {
	if idx.maint == nil {
		return nil, fmt.Errorf("mmdr: %s index does not support range queries", idx.Name())
	}
	return idx.maint.Range(q, r), nil
}

// Delete removes point id from the index (the model's data is untouched).
// It reports whether the point was indexed.
func (idx *Index) Delete(id int) (bool, error) {
	if idx.maint == nil {
		return false, fmt.Errorf("mmdr: %s index does not support deletion", idx.Name())
	}
	return idx.maint.Delete(id), nil
}

// EvaluatePrecision measures the model's mean KNN precision over a query
// workload (flat row-major, same dimensionality as the model): for each
// query, the fraction of the exact k nearest neighbors (in the original
// space) that the reduced representation returns — the paper's §6 metric.
func (m *Model) EvaluatePrecision(queries []float64, k int) (float64, error) {
	if len(queries) == 0 || len(queries)%m.ds.Dim != 0 {
		return 0, fmt.Errorf("mmdr: queries length %d not a multiple of dim %d", len(queries), m.ds.Dim)
	}
	qs, err := dataset.FromData(m.ds.Dim, queries)
	if err != nil {
		return 0, err
	}
	return query.ReductionPrecision(m.ds, m.result, qs, k), nil
}

// IndexStats describes an index's structure (extended iDistance only).
type IndexStats = idist.Stats

// Stats returns structural statistics of the index, or zero values for
// schemes that do not expose them (sequential scan).
func (idx *Index) Stats() IndexStats {
	if idx.maint == nil {
		return IndexStats{}
	}
	return idx.maint.Stats()
}

// ReconstructPoint returns the model's lossy reconstruction of point i:
// subspace members decompress from their reduced coordinates; outliers are
// stored exactly. The Euclidean gap to the original point is that point's
// projection error.
func (m *Model) ReconstructPoint(i int) ([]float64, error) {
	if i < 0 || i >= m.ds.N {
		return nil, fmt.Errorf("mmdr: point %d out of range [0,%d)", i, m.ds.N)
	}
	for _, s := range m.result.Subspaces {
		for k, id := range s.Members {
			if id == i {
				return s.Reconstruct(s.MemberCoords(k)), nil
			}
		}
	}
	return m.Point(i), nil // outlier: stored exactly
}

// CompressionRatio returns original storage / reduced storage: subspace
// members store Dr coordinates instead of Dim, outliers store Dim plus
// their index. Basis and centroid overheads are included.
func (m *Model) CompressionRatio() float64 {
	original := float64(m.ds.N * m.ds.Dim)
	var reduced float64
	for _, s := range m.result.Subspaces {
		reduced += float64(len(s.Members) * s.Dr)        // coordinates
		reduced += float64(m.ds.Dim*s.Dr + m.ds.Dim + 2) // basis + centroid + radii
	}
	reduced += float64(len(m.result.Outliers) * (m.ds.Dim + 1))
	if reduced <= 0 {
		return 0
	}
	return original / reduced
}

// AnomalyScore returns the distance from p to the nearest discovered
// subspace (the minimum ProjDist_r across subspaces). Points that no local
// correlation structure explains score high — the same criterion the
// β-threshold uses to separate outliers during reduction.
func (m *Model) AnomalyScore(p []float64) float64 {
	if len(m.result.Subspaces) == 0 {
		return 0
	}
	best := math.Inf(1)
	for _, s := range m.result.Subspaces {
		if r := s.Residual(p); r < best {
			best = r
		}
	}
	return best
}

// Refit re-runs the dimensionality reduction over the model's current data
// — including points added through Index.Insert — with the model's original
// options (overridable). It is the maintenance step after enough insertions
// have drifted from the fitted subspaces: rebuild the model, then rebuild
// indexes from it.
func (m *Model) Refit(opts ...Option) (*Model, error) {
	cfg := m.cfg
	for _, o := range opts {
		o(&cfg)
	}
	return reduceWithConfig(m.ds, cfg)
}
