package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"

	"mmdr/internal/metrics"
	"mmdr/internal/verify"
)

// newHTTPClient returns a client whose idle connections are reaped on
// cleanup so the leak checker sees a quiet process afterwards.
func newHTTPClient(t *testing.T) *http.Client {
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// postJSON round-trips one API call and decodes the response into out,
// returning the status code.
func postJSON(t *testing.T, c *http.Client, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for reuse
	}
	return resp.StatusCode
}

func TestHTTPServedAnswersBitwiseIdentical(t *testing.T) {
	checkLeaks := verify.Leak(t)
	model, queries := testModel(t, 1000, 24, 61)
	ref := cloneModel(t, model)
	const k = 5
	want := directAnswers(t, ref, queries, k)

	reg := metrics.NewRegistry()
	srv, err := New(model, Options{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	client := newHTTPClient(t)

	for i, q := range queries {
		var out NeighborsResponse
		if code := postJSON(t, client, base+"/knn", KNNRequest{Q: q, K: k}, &out); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
		if len(out.Neighbors) != len(want[i]) {
			t.Fatalf("query %d: %d neighbors, want %d", i, len(out.Neighbors), len(want[i]))
		}
		for j, nb := range out.Neighbors {
			if nb.ID != want[i][j].ID || math.Float64bits(nb.Dist) != math.Float64bits(want[i][j].Dist) {
				t.Fatalf("query %d answer %d: {%d %v} over HTTP, want {%d %v} — JSON must round-trip distances bit-exact",
					i, j, nb.ID, nb.Dist, want[i][j].ID, want[i][j].Dist)
			}
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	checkLeaks()
}

func TestHTTPEndpoints(t *testing.T) {
	model, queries := testModel(t, 600, 16, 71)
	reg := metrics.NewRegistry()
	srv, err := New(model, Options{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	client := newHTTPClient(t)

	// Range.
	var nbs NeighborsResponse
	if code := postJSON(t, client, base+"/range", RangeRequest{Q: queries[0], R: 0.5}, &nbs); code != http.StatusOK {
		t.Errorf("/range status %d", code)
	}

	// Insert then delete round trip.
	var ins InsertResponse
	if code := postJSON(t, client, base+"/insert", InsertRequest{P: queries[1]}, &ins); code != http.StatusOK {
		t.Fatalf("/insert status %d", code)
	}
	var del DeleteResponse
	if code := postJSON(t, client, base+"/delete", DeleteRequest{ID: ins.ID}, &del); code != http.StatusOK || !del.Found {
		t.Errorf("/delete status %d found %v", code, del.Found)
	}

	// Health and status.
	for _, path := range []string{"/healthz", "/statusz"} {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for reuse
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
	}
	var st Status
	resp, err := client.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Shards != 2 || st.Points != 600 {
		t.Errorf("statusz %+v", st)
	}

	// Metrics exposition includes the serving instruments.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(prom, []byte("serve:")) {
		t.Errorf("/metrics status %d, body lacks serve instruments:\n%s", resp.StatusCode, prom)
	}

	// Error mapping: wrong method, malformed body, validation failure.
	resp, err = client.Get(base + "/knn")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for reuse
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /knn status %d, want 405", resp.StatusCode)
	}
	resp, err = client.Post(base+"/knn", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for reuse
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", resp.StatusCode)
	}
	var errResp ErrorResponse
	if code := postJSON(t, client, base+"/knn", KNNRequest{Q: queries[0][:3], K: 3}, &errResp); code != http.StatusBadRequest {
		t.Errorf("dimension mismatch status %d, want 400", code)
	}

	// Start twice is an error.
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("second Start succeeded")
	}
}

// TestHTTPReload: the server has no reload route — a model path taken
// from a request would let any client make it open any readable file. The
// in-process Reload still swaps models (TestReloadSwapsModel).
func TestHTTPReload(t *testing.T) {
	model, _ := testModel(t, 500, 16, 81)
	srv, err := New(model, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := newHTTPClient(t)
	resp, err := client.Post("http://"+addr.String()+"/reload", "application/json",
		bytes.NewBufferString(`{"path":"/dev/zero"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/reload status %d, want 404", resp.StatusCode)
	}
	if gen := srv.Stats().Generation; gen != 0 {
		t.Fatalf("generation %d after a /reload request, want 0", gen)
	}
}

func TestWriteErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		code int
	}{
		{ErrOverloaded, http.StatusTooManyRequests},
		{ErrClosed, http.StatusServiceUnavailable},
		{fmt.Errorf("wrapped: %w", ErrOverloaded), http.StatusTooManyRequests},
		{fmt.Errorf("serve: vector dimension 3, model wants 16"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := &recorderWriter{header: make(http.Header)}
		writeError(rec, tc.err)
		if rec.code != tc.code {
			t.Errorf("writeError(%v) = %d, want %d", tc.err, rec.code, tc.code)
		}
	}
}

// recorderWriter is a minimal ResponseWriter for exercising writeError
// without a live server.
type recorderWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorderWriter) Header() http.Header         { return r.header }
func (r *recorderWriter) WriteHeader(code int)        { r.code = code }
func (r *recorderWriter) Write(p []byte) (int, error) { return r.body.Write(p) }
