package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"

	"mmdr"
	"mmdr/internal/serve"
)

// tally accounts a run's operations: every window request or call, every
// answer a correctness gate checks, and every failure by reason.
type tally struct {
	attempted, succeeded int64
	rejected             int64 // HTTP 429: admission refused the request
	badStatus            int64 // any other non-200 status
	transport            int64 // transport or call error
	mismatch             int64 // an answer differed from its reference
	invalid              string
	log                  io.Writer
	logged               int
}

func (t *tally) failed() int64 { return t.rejected + t.badStatus + t.transport + t.mismatch }

// status classifies one request's outcome and reports whether it
// succeeded at the transport level (HTTP 200).
func (t *tally) status(o outcome) bool {
	t.attempted++
	switch {
	case o.err != nil:
		t.transport++
		t.note("transport error: %v", o.err)
	case o.status == http.StatusTooManyRequests:
		t.rejected++
	case o.status != http.StatusOK:
		t.badStatus++
		t.note("status %d: %s", o.status, o.body)
	default:
		return true
	}
	return false
}

// answer accounts one answer already counted as attempted: a mismatch is a
// failed operation.
func (t *tally) answer(gate string, i int, got, want []mmdr.Neighbor) {
	if sameAnswer(got, want) {
		t.succeeded++
		return
	}
	t.mismatch++
	t.note("%s: query %d: got %v, want %v", gate, i, got, want)
}

// check runs a gate over a whole answer set: each answer is one attempted
// operation, and must equal its reference bitwise.
func (t *tally) check(gate string, got, want [][]mmdr.Neighbor) {
	if len(got) != len(want) {
		t.attempted++
		t.mismatch++
		t.note("%s: %d answers, want %d", gate, len(got), len(want))
		return
	}
	for i := range got {
		t.attempted++
		t.answer(gate, i, got[i], want[i])
	}
}

// note logs the first few failures to standard error.
func (t *tally) note(format string, args ...any) {
	if t.log == nil || t.logged >= 10 {
		return
	}
	t.logged++
	fmt.Fprintf(t.log, "perfbench: "+format+"\n", args...)
}

// sameAnswer is the bitwise answer contract: identical ids in identical
// order with math.Float64bits-identical distances.
func sameAnswer(a, b []mmdr.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// decodeNeighbors parses a /knn response body. encoding/json writes the
// shortest representation that parses back to the same float64 bits, so
// the served distances compare bitwise.
func decodeNeighbors(body []byte) ([]mmdr.Neighbor, error) {
	var r serve.NeighborsResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding /knn response: %w", err)
	}
	out := make([]mmdr.Neighbor, len(r.Neighbors))
	for i, n := range r.Neighbors {
		out[i] = mmdr.Neighbor{ID: n.ID, Dist: n.Dist}
	}
	return out, nil
}

// withoutDeleted is the oracle over the final point set: the answer of a
// sequential scan asked for k plus the number of deleted points, with the
// deleted ids dropped and the rest cut to k.
func withoutDeleted(scan []mmdr.Neighbor, deleted map[int]bool) []mmdr.Neighbor {
	out := make([]mmdr.Neighbor, 0, k)
	for _, nb := range scan {
		if len(out) == k {
			break
		}
		if !deleted[nb.ID] {
			out = append(out, nb)
		}
	}
	return out
}
