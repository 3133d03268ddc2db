package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// naiveDot / naiveSqDist are the rolled serial loops the kernels replace.
// The kernels must match them BITWISE: Go does not reassociate float math,
// and the unrolled bodies keep the same single-accumulator order.
func naiveDot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func naiveSqDist(x, y []float64) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestKernelsBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 100} {
		for trial := 0; trial < 10; trial++ {
			x, y := randVec(rng, n), randVec(rng, n)
			if got, want := DotUnroll4(x, y), naiveDot(x, y); got != want {
				t.Fatalf("n=%d DotUnroll4 = %v, serial = %v", n, got, want)
			}
			if got, want := SqDist(x, y), naiveSqDist(x, y); got != want {
				t.Fatalf("n=%d SqDist = %v, serial = %v", n, got, want)
			}
			if got, want := SqNorm(x), naiveDot(x, x); got != want {
				t.Fatalf("n=%d SqNorm = %v, serial = %v", n, got, want)
			}
			if got, want := SqDistEarlyAbandon(x, y, math.Inf(1)), naiveSqDist(x, y); got != want {
				t.Fatalf("n=%d SqDistEarlyAbandon(+Inf) = %v, serial = %v", n, got, want)
			}
		}
	}
}

func TestSqDistEarlyAbandonContract(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(80)
		x, y := randVec(rng, n), randVec(rng, n)
		full := SqDist(x, y)
		bound := full * rng.Float64() * 2 // below or above the true distance
		got := SqDistEarlyAbandon(x, y, bound)
		if got <= bound {
			// Within bound: must be the exact full distance, bitwise.
			if got != full {
				t.Fatalf("trial %d: returned %v <= bound %v but full is %v", trial, got, bound, full)
			}
		} else if full <= bound {
			// Abandoned although the full distance is within bound: the
			// monotonicity certificate would be wrong.
			t.Fatalf("trial %d: abandoned with %v but full %v <= bound %v", trial, got, full, bound)
		}
	}
}

// SqDistToRows must give every row exactly SqDist's value at every width:
// each fixed-width loop (d ≤ smallLoopMaxLen) and the per-row fallback
// above it, on row counts around a typical chunk.
func TestSqDistToRowsMatchesSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for d := 1; d <= 20; d++ {
		for _, n := range []int{0, 1, 7, 128} {
			q, rows := randVec(rng, d), randVec(rng, n*d)
			out := make([]float64, n)
			SqDistToRows(q, rows, out)
			for i := range out {
				if want := SqDist(q, rows[i*d:(i+1)*d]); out[i] != want {
					t.Fatalf("d=%d n=%d row %d: SqDistToRows %v, SqDist %v", d, n, i, out[i], want)
				}
			}
		}
	}
}

func TestMatVecRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range [][2]int{{1, 1}, {3, 7}, {5, 4}, {8, 16}, {2, 33}} {
		rows, cols := dims[0], dims[1]
		a := randVec(rng, rows*cols)
		x := randVec(rng, cols)
		dst := make([]float64, rows)
		MatVecRowMajor(a, rows, cols, x, dst)
		for r := 0; r < rows; r++ {
			if want := naiveDot(a[r*cols:(r+1)*cols], x); dst[r] != want {
				t.Fatalf("%dx%d row %d: got %v want %v", rows, cols, r, dst[r], want)
			}
		}
	}
}

func TestKernelPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("DotUnroll4", func() { DotUnroll4([]float64{1}, []float64{1, 2}) })
	expectPanic("SqDist", func() { SqDist([]float64{1}, []float64{1, 2}) })
	expectPanic("SqDistEarlyAbandon", func() { SqDistEarlyAbandon([]float64{1}, nil, 0) })
	expectPanic("SqDistToRows", func() { SqDistToRows([]float64{1, 2}, []float64{1, 2, 3}, make([]float64, 2)) })
	expectPanic("MatVecRowMajor/mat", func() { MatVecRowMajor([]float64{1, 2, 3}, 2, 2, []float64{1, 2}, []float64{0, 0}) })
	expectPanic("MatVecRowMajor/vec", func() { MatVecRowMajor([]float64{1, 2, 3, 4}, 2, 2, []float64{1}, []float64{0, 0}) })
}

func benchVecs(n int) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(42))
	return randVec(rng, n), randVec(rng, n)
}

func BenchmarkSqDist64(b *testing.B) {
	x, y := benchVecs(64)
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s += SqDist(x, y)
	}
	_ = s
}

func BenchmarkSqDistEarlyAbandon64(b *testing.B) {
	x, y := benchVecs(64)
	bound := SqDist(x, y) / 4 // abandons roughly a quarter of the way in
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s += SqDistEarlyAbandon(x, y, bound)
	}
	_ = s
}

func BenchmarkDotUnroll4_64(b *testing.B) {
	x, y := benchVecs(64)
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s += DotUnroll4(x, y)
	}
	_ = s
}
