package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded call into a layer. Spans of one request share a
// request id; times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	RID    int64  `json:"rid"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory around the benchmark's own calls into
// each layer's public functions; nothing inside the program is
// instrumented. A nil *tracer records nothing, so the untraced window runs
// the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent, rid int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, RID: rid, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int64, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, 0)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end(id)
	return d, err
}

// selfTimes returns, for every span called name under parent (any parent
// when parent is negative), its duration minus the part of it its child
// spans cover. Children of one span never overlap where self time is
// read: the benchmark opens them sequentially.
func (t *tracer) selfTimes(name string, parent int64) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (parent < 0 || s.Parent == parent) {
			out = append(out, time.Duration(s.End-s.Start-child[s.ID]))
		}
	}
	return out
}

// selfSummary is the per-name self-time account written beside the spans.
type selfSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	P50MS   float64 `json:"p50_ms"`
}

// write stores the spans and the per-name self-time summary as JSON in
// dir/<workload>-seed<seed>.json and returns the path. It runs after every
// traced call has returned.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	summary := make(map[string]selfSummary)
	for _, s := range t.spans {
		if _, done := summary[s.Name]; !done {
			self := t.selfTimes(s.Name, -1)
			summary[s.Name] = selfSummary{Count: len(self), TotalMS: ms(sum(self)), P50MS: ms(quantile(self, 0.5))}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Self     map[string]selfSummary `json:"self"`
		Spans    []span                 `json:"spans"`
	}{workload, seed, summary, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
