// Package idist implements the paper's §5: the extended iDistance index.
//
// iDistance [Yu, Ooi, Tan, Jagadish — VLDB'01] maps every point to a single
// dimension: y = i·c + dist(P, O_i), where O_i is the reference point of the
// partition holding P and c a stretching constant that range-partitions the
// key space per partition. The single-dimensional keys live in a B⁺-tree.
//
// The extension indexes points from *different axis systems* in one tree:
// each MMDR/LDR subspace is a partition whose reference point is its
// centroid (which projects to the origin of its local coordinate system),
// and the outlier set is one extra partition in the original space. KNN
// search proceeds by iteratively enlarging a query sphere and, per
// partition, scanning only the key annulus that the sphere can reach — the
// three containment cases of Figure 6 — until the k-th candidate distance
// drops below the search radius.
package idist

import (
	"fmt"
	"math"
	"sync"
	"time"

	"mmdr/internal/btree"
	"mmdr/internal/dataset"
	"mmdr/internal/index"
	"mmdr/internal/iostat"
	"mmdr/internal/matrix"
	"mmdr/internal/metrics"
	"mmdr/internal/obs"
	"mmdr/internal/quant"
	"mmdr/internal/reduction"
	"mmdr/internal/stats"
)

// Options configures index construction.
type Options struct {
	// PageSize for the underlying B⁺-tree (0 = iostat.PageSize).
	PageSize int
	// C is the key-space stretching constant; 0 derives it from the
	// largest partition radius.
	C float64
	// DeltaR is the radius-enlargement step of the KNN search; 0 derives
	// it as a fraction of the average partition radius.
	DeltaR float64
	// Counter accumulates page and distance costs (may be nil).
	Counter iostat.Sink
	// Tracer receives a build-index span covering bulk-load (may be nil).
	Tracer obs.Tracer
	// Metrics, when non-nil, receives per-operation latency histograms and
	// structural gauges (see SetMetrics). The record path is allocation-free,
	// so attaching it does not disturb the query alloc budgets.
	Metrics *metrics.Registry
	// Quant, when non-nil, attaches a trained product-quantizer set: the
	// layout rebuild additionally materializes per-partition code blocks and
	// KNNQuantized/BatchKNNQuantized become available. The set must align
	// with the partition order (subspaces first, outlier partition last) —
	// quant.TrainSet over the same reduction produces exactly that.
	Quant *quant.Set
}

// partition is one key-range section of the single-dimensional space:
// either a reduced subspace or the outlier set.
type partition struct {
	sub       *reduction.Subspace // nil for the outlier partition
	centroid  []float64           // original-space reference point (outliers)
	maxRadius float64             // data-sphere radius in the partition's metric
}

// Index is the extended iDistance structure: one B⁺-tree plus the two
// auxiliary arrays of §5 (partition geometry for searching; cluster shape
// for dynamic insertion lives on the Subspace values themselves).
type Index struct {
	ds      *dataset.Dataset
	red     *reduction.Result
	tree    *btree.Tree
	parts   []partition
	c       float64
	deltaR  float64
	counter iostat.Sink

	// Per-rid location: which partition and which member slot, so candidate
	// distances can be computed from stored reduced coordinates.
	partOf []int32
	slotOf []int32

	// layout is the SoA mirror of the tree's leaf level plus the writes
	// since the last merge (see layout.go): the only structure queries
	// read, set by Build and kept valid by every write.
	layout *soaLayout

	// quant is the attached product-quantizer set (nil = exact-only index).
	// The layout rebuild derives per-partition code blocks from it.
	quant *quant.Set

	// scratchPool recycles queryScratch values so a solo exact KNN
	// allocates only its returned neighbor slice.
	scratchPool sync.Pool

	// batchPool recycles batchScratch values (fused tile state) so tile
	// searches — batches, Range, KNNQuantized — allocate only their result
	// slices.
	batchPool sync.Pool

	// Insert scratch. Insert mutates the tree and is not concurrency-safe,
	// so plain fields (lazily sized) suffice.
	insDiff []float64
	insProj []float64

	// ops holds the attached runtime-metrics instruments; nil = detached,
	// and every operation skips instrumentation on a single nil check.
	ops *opSet
}

// Build constructs the index over a reduction of ds.
func Build(ds *dataset.Dataset, red *reduction.Result, opts Options) (*Index, error) {
	if ds.N == 0 {
		return nil, fmt.Errorf("idist: empty dataset")
	}
	obs.Begin(opts.Tracer, obs.PhaseBuildIndex)
	obs.Attr(opts.Tracer, "points", float64(ds.N))
	defer obs.End(opts.Tracer)
	nParts := len(red.Subspaces)
	hasOutliers := len(red.Outliers) > 0
	if hasOutliers {
		nParts++
	}
	if nParts == 0 {
		return nil, fmt.Errorf("idist: reduction has no partitions")
	}

	idx := &Index{
		ds:      ds,
		red:     red,
		counter: opts.Counter,
		partOf:  make([]int32, ds.N),
		slotOf:  make([]int32, ds.N),
		parts:   make([]partition, 0, nParts),
	}
	for i := range idx.partOf {
		idx.partOf[i] = -1
	}

	// Partition geometry. Subspace partitions measure distance in their
	// reduced coordinates (centroid projects to the origin); the outlier
	// partition measures in the original space from the outlier centroid.
	var weightedDim, members float64
	for _, s := range red.Subspaces {
		// Builders populate the kernel caches already; reductions arriving
		// from older snapshots or hand-built tests may not have them yet.
		s.EnsureKernels()
		idx.parts = append(idx.parts, partition{sub: s, maxRadius: s.MaxRadius})
		weightedDim += float64(s.Dr) * float64(len(s.Members))
		members += float64(len(s.Members))
	}
	var outCentroid []float64
	if hasOutliers {
		outPts := ds.Subset(red.Outliers)
		mean, err := stats.Mean(outPts.Data, ds.Dim)
		if err != nil {
			return nil, err
		}
		outCentroid = mean
		var r float64
		for i := 0; i < outPts.N; i++ {
			if d := matrix.Dist(outPts.Point(i), mean); d > r {
				r = d
			}
		}
		idx.parts = append(idx.parts, partition{centroid: mean, maxRadius: r})
		weightedDim += float64(ds.Dim) * float64(len(red.Outliers))
		members += float64(len(red.Outliers))
	}

	// Stretching constant: beyond every partition's radius so ranges never
	// collide.
	c := opts.C
	if c <= 0 {
		var maxR float64
		for _, p := range idx.parts {
			if p.maxRadius > maxR {
				maxR = p.maxRadius
			}
		}
		c = maxR*1.05 + 1e-9
	}
	idx.c = c

	dr := opts.DeltaR
	if dr <= 0 {
		var sum float64
		for _, p := range idx.parts {
			sum += p.maxRadius
		}
		dr = sum / float64(len(idx.parts)) / 4
		if dr <= 0 {
			dr = c / 4
		}
	}
	idx.deltaR = dr

	// Leaf entries hold the key plus the reduced vector: size the tree's
	// fan-out by the member-weighted average dimensionality so page I/O
	// scales with d_r the way Figure 9 expects.
	avgDim := 1.0
	if members > 0 {
		avgDim = weightedDim / members
	}
	entry := 8 * (int(math.Ceil(avgDim)) + 2)
	idx.tree = btree.NewWithEntrySize(opts.PageSize, entry, opts.Counter)

	// Map all points to keys y = i*c + dist(P, O_i) and bulk-load the tree
	// bottom-up (construction over an existing dataset; dynamic Insert
	// serves later additions).
	entries := make([]btree.Entry, 0, ds.N)
	for pi, s := range red.Subspaces {
		for mi, id := range s.Members {
			key := float64(pi)*c + matrix.Norm2(s.MemberCoords(mi))
			entries = append(entries, btree.Entry{Key: key, RID: uint32(id)})
			idx.partOf[id] = int32(pi)
			idx.slotOf[id] = int32(mi)
		}
	}
	if hasOutliers {
		pi := len(red.Subspaces)
		for _, id := range red.Outliers {
			key := float64(pi)*c + matrix.Dist(ds.Point(id), outCentroid)
			entries = append(entries, btree.Entry{Key: key, RID: uint32(id)})
			idx.partOf[id] = int32(pi)
			idx.slotOf[id] = -1
		}
	}
	idx.tree.BulkLoad(entries, 0.9)
	if opts.Quant != nil {
		if err := idx.validateQuant(opts.Quant); err != nil {
			return nil, err
		}
		idx.quant = opts.Quant
	}
	idx.rebuildLayout()
	obs.Attr(opts.Tracer, "partitions", float64(len(idx.parts)))
	obs.Attr(opts.Tracer, "tree_height", float64(idx.tree.Height()))
	obs.Attr(opts.Tracer, "leaf_pages", float64(idx.tree.LeafPages()))
	if opts.Metrics != nil {
		idx.SetMetrics(opts.Metrics)
	}
	return idx, nil
}

// Name implements index.KNNIndex.
func (idx *Index) Name() string { return "iDistance" }

// validateQuant checks that a codebook set aligns with the index's current
// partitions: one book per partition, in partition order, each matching its
// partition's dimensionality.
func (idx *Index) validateQuant(set *quant.Set) error {
	if err := set.Validate(); err != nil {
		return err
	}
	if len(set.Books) != len(idx.parts) {
		return fmt.Errorf("idist: quantizer has %d codebooks for %d partitions", len(set.Books), len(idx.parts))
	}
	for pi, cb := range set.Books {
		want := idx.ds.Dim
		if s := idx.parts[pi].sub; s != nil {
			want = s.Dr
		}
		if cb.Dim != want {
			return fmt.Errorf("idist: codebook %d has dim %d, partition needs %d", pi, cb.Dim, want)
		}
	}
	return nil
}

// SetQuantizer attaches (or, with nil, detaches) a trained product-quantizer
// set and rebuilds the SoA layout so the per-partition code blocks are
// materialized. Same concurrency contract as Insert: not safe alongside
// queries (ConcurrentIndex callers hold the write lock).
func (idx *Index) SetQuantizer(set *quant.Set) error {
	if set == nil {
		idx.quant = nil
		idx.rebuildLayout()
		return nil
	}
	if err := idx.validateQuant(set); err != nil {
		return err
	}
	idx.quant = set
	idx.rebuildLayout()
	return nil
}

// Quantizer returns the attached codebook set (nil when the index is
// exact-only).
func (idx *Index) Quantizer() *quant.Set { return idx.quant }

// HasQuantizer reports whether the quantized query paths are available:
// a codebook set is attached, and with it the layout's code blocks.
func (idx *Index) HasQuantizer() bool { return idx.quant != nil }

// Tree exposes the underlying B⁺-tree (diagnostics, tests).
func (idx *Index) Tree() *btree.Tree { return idx.tree }

// C returns the stretching constant.
func (idx *Index) C() float64 { return idx.c }

// queryState tracks, per partition, the query's projection, its distance to
// the reference point, and the key annulus already scanned.
type queryState struct {
	proj      []float64 // reduced coords (subspaces) or nil (outliers)
	dist      float64   // dist(q_i, O_i) in the partition metric
	scanLo    float64   // already-scanned annulus [scanLo, scanHi]
	scanHi    float64
	exhausted bool
}

// KNN implements index.KNNIndex: the iterative radius-enlargement search,
// run to completion (exact over the reduced representation).
//
//mmdr:hotpath budget pinned by alloc_test: 1 alloc (the returned slice)
func (idx *Index) KNN(q []float64, k int) []index.Neighbor {
	if idx.ops == nil {
		return idx.knn(q, k, 0, nil)
	}
	start := time.Now()
	out := idx.knn(q, k, 0, nil)
	elapsed := time.Since(start)
	if idx.ops.knn.Record(elapsed) {
		idx.captureSlowKNN(q, k, elapsed)
	}
	return out
}

// KNNApprox bounds the radius enlargement to maxRounds iterations
// (0 = unbounded, i.e. exact). Early termination returns the best
// candidates found so far — the online-answering mode of iDistance, useful
// when a slightly lower precision is an acceptable trade for latency.
//
//mmdr:hotpath
func (idx *Index) KNNApprox(q []float64, k, maxRounds int) []index.Neighbor {
	if idx.ops == nil {
		return idx.knn(q, k, maxRounds, nil)
	}
	start := time.Now()
	out := idx.knn(q, k, maxRounds, nil)
	idx.ops.approx.Record(time.Since(start))
	return out
}

// PartitionProbe explains how the KNN search treated one partition.
type PartitionProbe struct {
	// ID is the partition's index (subspaces first, outlier partition last).
	ID int `json:"id"`
	// Dim is the dimensionality distances were computed in: the subspace's
	// reduced dimensionality, or the original dimensionality for outliers.
	Dim int `json:"dim"`
	// Outlier marks the original-space outlier partition.
	Outlier bool `json:"outlier,omitempty"`
	// DistToRef is dist(q_i, O_i) in the partition's metric.
	DistToRef float64 `json:"dist_to_ref"`
	// ScanLo/ScanHi bound the key annulus actually scanned (relative to the
	// partition's reference point). A partition the sphere never reached
	// reports ScanLo=0, ScanHi=-1 (ScanLo > ScanHi means never scanned; the
	// sentinel is finite so the trace always marshals to JSON).
	ScanLo float64 `json:"scan_lo"`
	ScanHi float64 `json:"scan_hi"`
	// Candidates counts points of this partition whose distance was computed.
	Candidates int `json:"candidates"`
	// Exhausted reports whether the whole partition sphere was covered.
	Exhausted bool `json:"exhausted"`
}

// QueryTrace is the structured explain of one KNN search: how many
// radius-enlargement rounds ran, how far the sphere grew, and what each
// partition contributed.
type QueryTrace struct {
	K             int              `json:"k"`
	Rounds        int              `json:"rounds"`
	FinalRadius   float64          `json:"final_radius"`
	Candidates    int              `json:"candidates"`
	LeavesScanned int              `json:"leaves_scanned"`
	Partitions    []PartitionProbe `json:"partitions"`
}

// KNNTrace runs an exact KNN search and additionally returns the structured
// explain of the work performed.
func (idx *Index) KNNTrace(q []float64, k int) ([]index.Neighbor, *QueryTrace) {
	tr := &QueryTrace{K: k}
	nb := idx.knn(q, k, 0, tr)
	return nb, tr
}

//mmdr:hotpath
func (idx *Index) knn(q []float64, k, maxRounds int, tr *QueryTrace) []index.Neighbor {
	if k <= 0 {
		return nil
	}
	sc := idx.getScratch()
	defer idx.putScratch(sc)
	return idx.knnInto(sc, q, k, maxRounds, tr)
}

// knnInto runs the radius-enlargement search using sc's buffers. All
// candidate bookkeeping is done in SQUARED distance — sqrt is monotone, so
// the k-th squared distance selects exactly the same neighbor set — and the
// single sqrt per result happens when materializing the returned slice,
// which is the only allocation of the search.
//
//mmdr:hotpath the trace branches only run under KNNTrace, off the budget
func (idx *Index) knnInto(sc *queryScratch, q []float64, k, maxRounds int, tr *QueryTrace) []index.Neighbor {
	if k <= 0 {
		return nil
	}
	sc.top.Reset(k)
	sc.q = q
	states := sc.states
	for pi := range idx.parts {
		p := &idx.parts[pi]
		st := &states[pi]
		if p.sub != nil {
			p.sub.ProjectInto(q, st.proj)
			st.dist = math.Sqrt(matrix.SqNorm(st.proj))
		} else {
			st.dist = matrix.Dist(q, p.centroid)
		}
		st.scanLo, st.scanHi = math.Inf(1), math.Inf(-1) // nothing scanned
		st.exhausted = false
	}
	if tr != nil {
		tr.Partitions = make([]PartitionProbe, len(idx.parts))
		for pi := range idx.parts {
			p := &idx.parts[pi]
			pr := &tr.Partitions[pi]
			pr.ID = pi
			pr.DistToRef = states[pi].dist
			if p.sub != nil {
				pr.Dim = p.sub.Dr
			} else {
				pr.Dim = idx.ds.Dim
				pr.Outlier = true
			}
		}
	}
	pending := idx.layout.pending != 0
	if pending {
		idx.soloDelta(sc, tr)
	}

	r := idx.deltaR
	rounds := 0
	for round := 1; ; round++ {
		rounds = round
		allDone := true
		for pi := range idx.parts {
			p := &idx.parts[pi]
			st := &states[pi]
			if st.exhausted {
				continue
			}
			// Figure 6 case analysis collapses into one annulus formula:
			// reachable key range = [max(0, dist-r), min(maxRadius, dist+r)].
			lo := st.dist - r
			if lo < 0 {
				lo = 0
			}
			hi := st.dist + r
			if hi > p.maxRadius {
				hi = p.maxRadius
			}
			if lo > hi {
				// Case 3: sphere does not reach this partition yet.
				if st.dist-r > p.maxRadius {
					allDone = false // may reach later
				}
				continue
			}
			// Scan only the not-yet-visited parts of the annulus. A grown
			// annulus re-scans with half-open bounds so keys sitting exactly
			// on a previous edge are visited exactly once.
			base := float64(pi) * idx.c
			if st.scanLo > st.scanHi {
				idx.scanRange(sc, pi, base+lo, base+hi, false, false, tr)
				st.scanLo, st.scanHi = lo, hi
			} else {
				if lo < st.scanLo {
					idx.scanRange(sc, pi, base+lo, base+st.scanLo, false, true, tr)
					st.scanLo = lo
				}
				if hi > st.scanHi {
					idx.scanRange(sc, pi, base+st.scanHi, base+hi, true, false, tr)
					st.scanHi = hi
				}
			}
			if st.scanLo <= 0 && st.scanHi >= p.maxRadius {
				st.exhausted = true
			} else {
				allDone = false
			}
		}
		// Stop when the k-th distance is within the sphere (every closer
		// point has been seen) or nothing remains to scan. Kth is squared,
		// so the sphere radius is compared squared too.
		if sc.top.Len() >= k && sc.top.Kth() <= r*r {
			break
		}
		if allDone {
			break
		}
		if maxRounds > 0 && round >= maxRounds {
			break
		}
		r += idx.deltaR
	}
	if tr != nil {
		tr.Rounds = rounds
		tr.FinalRadius = r
		for pi := range idx.parts {
			st := &states[pi]
			pr := &tr.Partitions[pi]
			if st.scanLo > st.scanHi {
				pr.ScanLo, pr.ScanHi = 0, -1 // never reached
			} else {
				pr.ScanLo, pr.ScanHi = st.scanLo, st.scanHi
			}
			pr.Exhausted = st.exhausted
		}
	}
	out := sc.top.Sorted()
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	if pending {
		out = idx.dropDead(out)
	}
	return out
}

// scanRange evaluates the [lo, hi] key annulus slice of partition pi
// (edges excluded per the flags when re-scanning a grown annulus): two
// binary searches over the partition's key span convert the edges to a
// contiguous row interval whose vectors stream from the row-major block
// (see scanBlockKNN), in squared projected distance for subspace members
// and squared original-space distance for outliers.
//
//mmdr:hotpath
func (idx *Index) scanRange(sc *queryScratch, pi int, lo, hi float64, exLo, exHi bool, tr *QueryTrace) {
	sc.beginScan(pi)
	sc.cand = 0
	leaves := idx.scanBlockKNN(sc, pi, lo, hi, exLo, exHi)
	if tr != nil {
		tr.Candidates += sc.cand
		tr.LeavesScanned += leaves
		tr.Partitions[pi].Candidates += sc.cand
	}
}

// Stats describes the index structure for monitoring and diagnostics.
type Stats struct {
	Points     int // indexed entries
	Partitions int // subspace partitions + outlier partition
	TreeHeight int
	LeafPages  int
	C          float64 // stretching constant
	DeltaR     float64 // search-radius step
}

// Stats returns the index's structural statistics.
func (idx *Index) Stats() Stats {
	return Stats{
		Points:     idx.tree.Len(),
		Partitions: len(idx.parts),
		TreeHeight: idx.tree.Height(),
		LeafPages:  idx.tree.LeafPages(),
		C:          idx.c,
		DeltaR:     idx.deltaR,
	}
}
