package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// randTable builds an m-block × k table of non-negative entries plus a code
// selecting one entry per block.
func randTable(rng *rand.Rand, m, k int) ([]float64, []byte) {
	table := make([]float64, m*k)
	for i := range table {
		table[i] = rng.Float64() * 3
	}
	code := make([]byte, m)
	for j := range code {
		code[j] = byte(rng.Intn(k))
	}
	return table, code
}

func TestADCSumMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{1, 2, 4, 8, 16} {
		for _, k := range []int{2, 16, 64, 256} {
			table, code := randTable(rng, m, k)
			var want float64
			for j, c := range code {
				want += table[j*k+int(c)]
			}
			if got := ADCSum(table, k, code); got != want {
				t.Errorf("m=%d k=%d: ADCSum=%v want %v", m, k, got, want)
			}
		}
	}
}

func TestADCSumBoundContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(16)
		k := 1 + rng.Intn(256)
		table, code := randTable(rng, m, k)
		full := ADCSum(table, k, code)
		bound := rng.Float64() * float64(m) * 3
		got := ADCSumBound(table, k, code, bound)
		if got <= bound {
			// An accepted value must be the exact full sum, bit for bit.
			if got != full {
				t.Fatalf("accepted value %v != full sum %v (bound %v)", got, full, bound)
			}
		} else if full <= bound {
			// An abandoned value must certify genuine exceedance.
			t.Fatalf("abandoned with partial %v but full sum %v <= bound %v", got, full, bound)
		}
	}
}

func TestADCSumBoundInfIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	table, code := randTable(rng, 8, 64)
	if got, want := ADCSumBound(table, 64, code, math.Inf(1)), ADCSum(table, 64, code); got != want {
		t.Fatalf("ADCSumBound(+Inf)=%v want %v", got, want)
	}
}

// ADCToRows must give every code row exactly ADCSum's value at every code
// width: the inline loops (m < ADCAbandonMinBlocks) and the per-row
// fallback above them.
func TestADCToRowsMatchesADCSum(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for m := 1; m <= 8; m++ {
		for _, k := range []int{1, 16, 64, 256} {
			for _, n := range []int{0, 1, 9, 128} {
				table, _ := randTable(rng, m, k)
				codes := make([]byte, n*m)
				for i := range codes {
					codes[i] = byte(rng.Intn(k))
				}
				out := make([]float64, n)
				ADCToRows(table, k, codes, m, out)
				for i := range out {
					if want := ADCSum(table, k, codes[i*m:(i+1)*m]); out[i] != want {
						t.Fatalf("m=%d k=%d n=%d row %d: ADCToRows %v, ADCSum %v", m, k, n, i, out[i], want)
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ADCToRows with a short code block: expected panic")
		}
	}()
	ADCToRows(make([]float64, 8), 4, make([]byte, 3), 2, make([]float64, 2))
}

func TestADCSumEmptyCode(t *testing.T) {
	if got := ADCSum(nil, 4, nil); got != 0 {
		t.Fatalf("empty code: got %v want 0", got)
	}
	if got := ADCSumBound(nil, 4, nil, 0); got != 0 {
		t.Fatalf("empty code bounded: got %v want 0", got)
	}
}

func BenchmarkADCSum(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	table, code := randTable(rng, 8, 64)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += ADCSum(table, 64, code)
	}
	_ = sink
}
