package matrix

// Flat-slice query kernels. These are the inner loops of the query hot path
// (candidate evaluation in the extended iDistance, basis projection, residual
// computation); everything else in the package is build-time code.
//
// Every kernel accumulates with a SINGLE accumulator in strict left-to-right
// index order. The Go compiler never reassociates floating-point arithmetic,
// so the 4-way unrolled bodies produce bit-identical results to the naive
// loops they replace — unrolling buys reduced loop overhead and bounds-check
// elimination only, never a different rounding sequence. This is what lets
// the kernelized query path guarantee answers bitwise equal to the serial
// reference while the same kernels also feed build-time model state
// (projected coordinates, radii) without perturbing it.
//
// Each accumulating kernel dispatches on smallLoopMaxLen: at or below it a
// plain stride-1 loop wins (the loop body is fully bounds-check-free once
// the second operand is pinned to len(x), and at the reduced dimensionalities
// the subspace scans run at the unrolled form's per-chunk slice checks cost
// more than the unrolling saves); above it the 4-way unrolled form wins on
// loop overhead. Both forms share the serial accumulation order, so the
// dispatch never changes a result bit. The wide path's two slice re-checks
// per chunk are pinned by the mmdrgate contract manifest: the prove pass
// cannot learn facts about a step-4 induction variable, so those checks are
// the measured-cheapest shape, not an oversight.

// smallLoopMaxLen is the measured crossover between the plain stride-1
// loop and the 4-way unrolled form: at d=8 the plain loop is ~8% faster
// (and check-free); by d=10 the unrolled form wins. Distinct from
// EarlyAbandonMinLen, which gates the abandon *branches*, not the loop
// shape.
const smallLoopMaxLen = 8

// DotUnroll4 returns the inner product of x and y (serial accumulation
// order; 4-way unrolled above smallLoopMaxLen).
//
//mmdr:hotpath
func DotUnroll4(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("matrix: DotUnroll4 length mismatch")
	}
	if len(x) <= smallLoopMaxLen {
		return dotSmall(x, y)
	}
	var s float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		s += x4[0] * y4[0]
		s += x4[1] * y4[1]
		s += x4[2] * y4[2]
		s += x4[3] * y4[3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// dotSmall is the short-vector dot kernel: pinning y to len(x) makes every
// access in the range loop provably in bounds, so the body is check-free.
//
//mmdr:hotpath
func dotSmall(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// SqDist returns the squared Euclidean distance between x and y (serial
// accumulation order; 4-way unrolled above smallLoopMaxLen).
//
//mmdr:hotpath
func SqDist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("matrix: SqDist length mismatch")
	}
	if len(x) <= smallLoopMaxLen {
		return sqDistSmall(x, y)
	}
	var s float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		d0 := x4[0] - y4[0]
		s += d0 * d0
		d1 := x4[1] - y4[1]
		s += d1 * d1
		d2 := x4[2] - y4[2]
		s += d2 * d2
		d3 := x4[3] - y4[3]
		s += d3 * d3
	}
	for ; i < len(x); i++ {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// sqDistSmall is the short-vector squared-distance kernel (check-free body,
// see dotSmall).
//
//mmdr:hotpath
func sqDistSmall(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// EarlyAbandonMinLen is the vector length below which SqDistEarlyAbandon
// computes the full distance without bound checks: on short vectors (the
// reduced dimensionalities subspace scans run at) the per-block branch
// costs more than the skipped tail could save, and abandoning can only
// ever change a value the caller rejects anyway. Hot loops that know their
// vector length per scan can branch on this themselves and call SqDist
// directly, saving the dispatch call.
const EarlyAbandonMinLen = 16

// SqDistEarlyAbandon computes the squared Euclidean distance between x and
// y, abandoning the scan as soon as the partial sum exceeds bound. Partial
// sums of squares are monotone non-decreasing, so a return value v > bound
// certifies the full squared distance also exceeds bound; a return value
// v <= bound is the exact full squared distance, bit-identical to SqDist
// (the survivors' accumulation sequence is unchanged — the bound check only
// cuts iterations short, it never reorders them). Pass bound = +Inf to
// disable abandoning. Vectors shorter than earlyAbandonMinLen skip the
// bound checks entirely (same contract: the return value is then always
// the exact squared distance).
//
//mmdr:hotpath
func SqDistEarlyAbandon(x, y []float64, bound float64) float64 {
	if len(x) != len(y) {
		panic("matrix: SqDistEarlyAbandon length mismatch")
	}
	if len(x) < EarlyAbandonMinLen {
		return SqDist(x, y)
	}
	var s float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		d0 := x4[0] - y4[0]
		s += d0 * d0
		d1 := x4[1] - y4[1]
		s += d1 * d1
		d2 := x4[2] - y4[2]
		s += d2 * d2
		d3 := x4[3] - y4[3]
		s += d3 * d3
		if s > bound {
			return s
		}
	}
	for ; i < len(x); i++ {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// SqDistRowToSel is the multi-query blocked kernel: it evaluates one stored
// row v against a selected subset of queries held in a row-major tile,
// writing squared distances to out. qs is the flat tile (query j occupies
// qs[j*d:(j+1)*d]); sel lists the participating tile rows; bounds[i] is the
// early-abandon bound for sel[i], and out[i] receives its result. The point
// of the shape is memory traffic: v — the streamed side of an annulus scan —
// is loaded once and reused across the whole selection, so a partition scan
// serving a query tile reads each block row once instead of once per query.
//
// Per pair the arithmetic is exactly SqDistEarlyAbandon(q, v, bound): same
// single-accumulator left-to-right order, same abandon contract (a result
// <= bound is the exact squared distance, bit-identical to SqDist; a result
// > bound only certifies exceedance), same EarlyAbandonMinLen cutoff below
// which bound checks are skipped. Batched answers therefore match a
// per-query scan bit for bit.
//
//mmdr:hotpath inner loop of the fused batch annulus scan
func SqDistRowToSel(v, qs []float64, d int, sel []int32, bounds, out []float64) {
	if len(sel) > len(bounds) || len(sel) > len(out) {
		panic("matrix: SqDistRowToSel selection longer than bounds/out")
	}
	if d <= smallLoopMaxLen {
		// Small reduced dimensionalities take the check-free plain-loop
		// kernel directly, with SqDist's length guard hoisted out of the
		// per-pair loop: one branch per streamed row instead of guard +
		// dispatch per (query, row) pair.
		if len(sel) != 0 && len(v) != d {
			panic("matrix: SqDist length mismatch")
		}
		for i, j := range sel {
			q := qs[int(j)*d : int(j)*d+d : int(j)*d+d]
			out[i] = sqDistSmall(q, v)
		}
		return
	}
	if d < EarlyAbandonMinLen {
		for i, j := range sel {
			q := qs[int(j)*d : int(j)*d+d : int(j)*d+d]
			out[i] = SqDist(q, v)
		}
		return
	}
	for i, j := range sel {
		q := qs[int(j)*d : int(j)*d+d : int(j)*d+d]
		out[i] = SqDistEarlyAbandon(q, v, bounds[i])
	}
}

// SqDistToRows is the one-query-to-many-rows kernel, the mirror of
// SqDistRowToSel: it writes to out[i] the squared distance from q to row i
// of rows, a row-major block of len(out) rows, each len(q) wide. Every
// width up to smallLoopMaxLen has its own fixed-width loop with the query's
// coordinates held in locals, so a row costs d subtract-multiply-adds and
// no call; wider rows take SqDist per row. Each value is SqDist(q, row)
// bit for bit: the per-row accumulation is sqDistSmall's, one accumulator
// starting at zero, s += t*t in coordinate order. There is no early
// abandoning; callers that want it at EarlyAbandonMinLen and above keep the
// per-row SqDistEarlyAbandon loop.
//
//mmdr:hotpath chunk fill of every layout row scan below EarlyAbandonMinLen
func SqDistToRows(q, rows, out []float64) {
	d := len(q)
	if len(rows) != len(out)*d {
		panic("matrix: SqDistToRows block size mismatch")
	}
	switch d {
	case 1:
		q0 := q[0]
		for i := range out {
			var s float64
			t := q0 - rows[i]
			s += t * t
			out[i] = s
		}
	case 2:
		q0, q1 := q[0], q[1]
		for i := range out {
			r := rows[i*2 : i*2+2 : i*2+2]
			var s float64
			t := q0 - r[0]
			s += t * t
			t = q1 - r[1]
			s += t * t
			out[i] = s
		}
	case 3:
		q0, q1, q2 := q[0], q[1], q[2]
		for i := range out {
			r := rows[i*3 : i*3+3 : i*3+3]
			var s float64
			t := q0 - r[0]
			s += t * t
			t = q1 - r[1]
			s += t * t
			t = q2 - r[2]
			s += t * t
			out[i] = s
		}
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		for i := range out {
			r := rows[i*4 : i*4+4 : i*4+4]
			var s float64
			t := q0 - r[0]
			s += t * t
			t = q1 - r[1]
			s += t * t
			t = q2 - r[2]
			s += t * t
			t = q3 - r[3]
			s += t * t
			out[i] = s
		}
	case 5:
		q0, q1, q2, q3, q4 := q[0], q[1], q[2], q[3], q[4]
		for i := range out {
			r := rows[i*5 : i*5+5 : i*5+5]
			var s float64
			t := q0 - r[0]
			s += t * t
			t = q1 - r[1]
			s += t * t
			t = q2 - r[2]
			s += t * t
			t = q3 - r[3]
			s += t * t
			t = q4 - r[4]
			s += t * t
			out[i] = s
		}
	case 6:
		q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
		for i := range out {
			r := rows[i*6 : i*6+6 : i*6+6]
			var s float64
			t := q0 - r[0]
			s += t * t
			t = q1 - r[1]
			s += t * t
			t = q2 - r[2]
			s += t * t
			t = q3 - r[3]
			s += t * t
			t = q4 - r[4]
			s += t * t
			t = q5 - r[5]
			s += t * t
			out[i] = s
		}
	case 7:
		q0, q1, q2, q3, q4, q5, q6 := q[0], q[1], q[2], q[3], q[4], q[5], q[6]
		for i := range out {
			r := rows[i*7 : i*7+7 : i*7+7]
			var s float64
			t := q0 - r[0]
			s += t * t
			t = q1 - r[1]
			s += t * t
			t = q2 - r[2]
			s += t * t
			t = q3 - r[3]
			s += t * t
			t = q4 - r[4]
			s += t * t
			t = q5 - r[5]
			s += t * t
			t = q6 - r[6]
			s += t * t
			out[i] = s
		}
	case 8:
		q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
		for i := range out {
			r := rows[i*8 : i*8+8 : i*8+8]
			var s float64
			t := q0 - r[0]
			s += t * t
			t = q1 - r[1]
			s += t * t
			t = q2 - r[2]
			s += t * t
			t = q3 - r[3]
			s += t * t
			t = q4 - r[4]
			s += t * t
			t = q5 - r[5]
			s += t * t
			t = q6 - r[6]
			s += t * t
			t = q7 - r[7]
			s += t * t
			out[i] = s
		}
	default:
		for i := range out {
			out[i] = SqDist(q, rows[i*d:i*d+d:i*d+d])
		}
	}
}

// MatVecRowMajor computes dst = A·x for a row-major rows×cols matrix stored
// flat in a. Each output element is one contiguous dot product (DotUnroll4),
// so the kernel streams both the matrix and the vector — the access pattern
// the transposed projection basis is laid out for. dst must have length
// rows; a must have length rows*cols.
//
//mmdr:hotpath
func MatVecRowMajor(a []float64, rows, cols int, x, dst []float64) {
	if len(a) != rows*cols {
		panic("matrix: MatVecRowMajor matrix size mismatch")
	}
	if len(x) != cols || len(dst) != rows {
		panic("matrix: MatVecRowMajor vector size mismatch")
	}
	for r := 0; r < rows; r++ {
		dst[r] = DotUnroll4(a[r*cols:(r+1)*cols], x)
	}
}

// SqNorm returns the squared Euclidean norm of x (serial accumulation
// order, 4-way unrolled).
//
//mmdr:hotpath
func SqNorm(x []float64) float64 {
	if len(x) <= smallLoopMaxLen {
		var s float64
		for i := range x {
			s += x[i] * x[i]
		}
		return s
	}
	var s float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		s += x4[0] * x4[0]
		s += x4[1] * x4[1]
		s += x4[2] * x4[2]
		s += x4[3] * x4[3]
	}
	for ; i < len(x); i++ {
		s += x[i] * x[i]
	}
	return s
}
