package matrix

// Asymmetric-distance (ADC) kernels for the product-quantized scan path.
// A PQ code row is m uint8 sub-codes; the query side is a per-query lookup
// table with one K-wide slab per sub-block, table[j*k+c] holding the exact
// squared distance between the query's j-th sub-vector and centroid c of
// block j. The estimated squared distance of a coded row is then m table
// loads and m-1 adds — no multiplies, no stored floats.
//
// Table entries are squared distances and therefore non-negative, which is
// what makes the partial sums of ADCSumBound monotone non-decreasing and
// the early-abandon contract sound. Accumulation is a single accumulator in
// strict block order, so every caller that sums the same table and code
// gets the bit-identical estimate regardless of batching.

// ADCSum returns the ADC estimate Σ_j table[j*k + code[j]] for one coded
// row. k is the per-block slab width (the codebook's centroid count); code
// supplies one sub-code per block.
//
//mmdr:hotpath innermost per-row kernel of every quantized annulus scan
func ADCSum(table []float64, k int, code []byte) float64 {
	var s float64
	off := 0
	for _, c := range code {
		s += table[off+int(c)]
		off += k
	}
	return s
}

// ADCAbandonMinBlocks is the code width from which ADCSumBound checks its
// bound after each block; narrower codes are summed in full (see
// ADCSumBound), and ADCToRows gives each of them its own inline loop.
const ADCAbandonMinBlocks = 5

// ADCSumBound is ADCSum with early abandoning: the scan may stop as soon as
// the partial sum exceeds bound. Table entries are non-negative, so a
// return value v > bound certifies the full estimate also exceeds bound; a
// return value v <= bound is the exact full estimate, bit-identical to
// ADCSum (abandoning only cuts block iterations short, it never reorders
// the strict left-to-right accumulation). Pass bound = +Inf to disable
// abandoning. Codes of at most four blocks skip the per-block branch
// entirely: at that width an abandoned row saves fewer adds than the
// branches cost, and the full sum is what ADCSum would return anyway.
//
//mmdr:hotpath innermost per-row kernel of every bounded quantized scan
func ADCSumBound(table []float64, k int, code []byte, bound float64) float64 {
	if len(code) == 4 {
		if k == 256 && len(table) >= 1024 {
			// The K=256/m=4 configuration is the paper-scale default, so
			// it gets a dedicated shape: pinning the table to a constant
			// 1024-wide slab makes every lookup provably in bounds (a byte
			// sub-code cannot index past offset+255 ≤ 1023), so the four
			// loads carry no bounds checks at all. Same loads in the same
			// order as the generic four-block path below — bit-identical,
			// and a malformed short table falls through to it so the panic
			// behavior is unchanged too.
			t := table[:1024:1024]
			s := t[int(code[0])]
			s += t[256+int(code[1])]
			s += t[512+int(code[2])]
			s += t[768+int(code[3])]
			return s
		}
		s := table[int(code[0])]
		s += table[k+int(code[1])]
		s += table[2*k+int(code[2])]
		s += table[3*k+int(code[3])]
		return s
	}
	if len(code) < ADCAbandonMinBlocks {
		return ADCSum(table, k, code)
	}
	var s float64
	off := 0
	for _, c := range code {
		s += table[off+int(c)]
		if s > bound {
			return s
		}
		off += k
	}
	return s
}

// ADCToRows is the one-table-to-many-rows kernel: it writes to out[i] the
// ADC estimate of code row i of codes, a row-major block of len(out) rows
// of m sub-codes each. Codes of one to four blocks (the widths ADCSumBound
// never abandons) have their own loop with the table loads inline; wider
// codes take ADCSum per row. Each value is ADCSum(table, k, row) bit for
// bit: one accumulator starting at zero, blocks in order. There is no
// early abandoning; callers scanning codes of more than four blocks keep
// the per-row ADCSumBound loop.
//
//mmdr:hotpath chunk fill of the quantized interval scan
func ADCToRows(table []float64, k int, codes []byte, m int, out []float64) {
	if len(codes) != len(out)*m {
		panic("matrix: ADCToRows code block size mismatch")
	}
	k2, k3 := 2*k, 3*k
	switch m {
	case 1:
		for i, c := range codes {
			var s float64
			s += table[c]
			out[i] = s
		}
	case 2:
		for i := range out {
			c := codes[i*2 : i*2+2 : i*2+2]
			var s float64
			s += table[c[0]]
			s += table[k+int(c[1])]
			out[i] = s
		}
	case 3:
		for i := range out {
			c := codes[i*3 : i*3+3 : i*3+3]
			var s float64
			s += table[c[0]]
			s += table[k+int(c[1])]
			s += table[k2+int(c[2])]
			out[i] = s
		}
	case 4:
		for i := range out {
			c := codes[i*4 : i*4+4 : i*4+4]
			var s float64
			s += table[c[0]]
			s += table[k+int(c[1])]
			s += table[k2+int(c[2])]
			s += table[k3+int(c[3])]
			out[i] = s
		}
	default:
		for i := range out {
			out[i] = ADCSum(table, k, codes[i*m:i*m+m:i*m+m])
		}
	}
}
