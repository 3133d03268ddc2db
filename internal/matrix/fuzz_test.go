package matrix

import (
	"encoding/binary"
	"math"
	"testing"
)

// Fuzz targets for the one-query-to-many-rows kernels. Each holds the
// kernel to the per-row kernel it replaces in the index's row scans —
// SqDistToRows to SqDist, ADCToRows to ADCSum — bit for bit, at every
// width the dispatch distinguishes and on rows holding ±0, ±Inf and NaN.
// NaN results are compared as NaN: every comparison the index makes treats
// all NaNs alike, and the compiler may order an addition's operands
// differently in two functions, which can pick a different NaN payload.

// fuzzFloats decodes up to n float64 values from the front of data (all of
// it when n < 0) and returns them with the bytes left over. A selector byte
// picks a special value (±0, ±Inf, NaN, ±MaxFloat64, the smallest
// subnormal), the raw bits of the next eight bytes (any float64 at all), or
// a small inexact value from the next byte.
func fuzzFloats(data []byte, n int) ([]float64, []byte) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	var out []float64
	for len(data) > 0 && len(out) != n {
		sel := data[0]
		data = data[1:]
		switch {
		case sel < 32:
			out = append(out, specials[int(sel)%len(specials)])
		case sel < 96 && len(data) >= 8:
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		case len(data) >= 1:
			out = append(out, float64(int8(data[0]))/7)
			data = data[1:]
		default:
			out = append(out, float64(sel)/3)
		}
	}
	return out, data
}

// sameFloat reports whether a and b are the same float64 bit for bit, or
// both NaN.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func FuzzSqDistToRows(f *testing.F) {
	f.Add([]byte("\x60\x01\x02\x03\x04\x05\x06\x07\x08\xa0\x10\xa0\x20\xa0\x30"), uint8(2))
	f.Add([]byte("\x00\x01\x02\x03\x04\xa0\x10\xa0\x11\xa0\x12\xa0\x13\xa0\x14\xa0\x15"), uint8(0))
	f.Add([]byte("\xa0\x7f\xa0\x80\xa0\x01\x02\xa0\x05\x04\xa0\x06\xa0\x07\x05\x06\x07"), uint8(7))
	f.Add([]byte("\xa0\x01\xa0\x02\xa0\x03\xa0\x04\xa0\x05\xa0\x06\xa0\x07\xa0\x08\xa0\x09\xa0\x0a\xa0\x0b\xa0\x0c"), uint8(18))
	f.Fuzz(func(t *testing.T, data []byte, wraw uint8) {
		d := int(wraw)%20 + 1
		vals, _ := fuzzFloats(data, -1)
		if len(vals) < d {
			return
		}
		q, rows := vals[:d], vals[d:]
		n := len(rows) / d
		rows = rows[:n*d]
		out := make([]float64, n)
		SqDistToRows(q, rows, out)
		for i := range out {
			want := SqDist(q, rows[i*d:(i+1)*d])
			if !sameFloat(out[i], want) {
				t.Fatalf("d=%d row %d: SqDistToRows %v (%#x), SqDist %v (%#x)",
					d, i, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
			}
		}
	})
}

func FuzzADCToRows(f *testing.F) {
	f.Add([]byte("\xa0\x01\xa0\x02\xa0\x03\xa0\x04\x00\x01\x02\x03"), uint8(1), uint8(1))
	f.Add([]byte("\x00\x01\x02\x03\x04\xa0\x10\xa0\x11\xa0\x12\x05\x06\x07"), uint8(3), uint8(1))
	f.Add([]byte("\xa0\x01\xa0\x02\xa0\x03\xa0\x04\xa0\x05\xa0\x06\xa0\x07\xa0\x08\x00\x01\x02\x03\x04\x05"), uint8(0), uint8(3))
	f.Add([]byte("\x60\x01\x02\x03\x04\x05\x06\x07\x08\xa0\x10\xa0\x20\xa0\x30\xff\xfe\xfd\xfc"), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, mraw, kraw uint8) {
		m := int(mraw)%8 + 1
		k := int(kraw)%8 + 1
		// The table takes the leading values, the code rows the bytes
		// that remain, one sub-code per byte reduced into [0, k).
		table, rest := fuzzFloats(data, m*k)
		if len(table) < m*k {
			return
		}
		n := len(rest) / m
		codes := make([]byte, n*m)
		for i := range codes {
			codes[i] = rest[i] % byte(k)
		}
		out := make([]float64, n)
		ADCToRows(table, k, codes, m, out)
		for i := range out {
			want := ADCSum(table, k, codes[i*m:(i+1)*m])
			if !sameFloat(out[i], want) {
				t.Fatalf("m=%d k=%d row %d: ADCToRows %v (%#x), ADCSum %v (%#x)",
					m, k, i, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
			}
		}
	})
}
