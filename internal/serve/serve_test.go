package serve

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"mmdr"
	"mmdr/internal/datagen"
	"mmdr/internal/metrics"
)

// testModel builds a small reduced model plus a query workload.
func testModel(t testing.TB, n, dim int, seed int64) (*mmdr.Model, [][]float64) {
	t.Helper()
	cfg := datagen.CorrelatedConfig{N: n, Dim: dim, NumClusters: 3, SDim: 3,
		VarRatio: 50, ScaleDecay: 0.75, Seed: seed}
	ds, _, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ds = datagen.Normalize(ds)
	model, err := mmdr.ReduceDataset(ds, mmdr.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	qs := datagen.SampleQueries(ds, 32, 0.05, seed+1)
	queries := make([][]float64, qs.N)
	for i := range queries {
		queries[i] = append([]float64(nil), qs.Point(i)...)
	}
	return model, queries
}

// directAnswers computes reference answers on an index built from an
// identical model copy.
func directAnswers(t testing.TB, model *mmdr.Model, queries [][]float64, k int) [][]mmdr.Neighbor {
	t.Helper()
	idx, err := model.NewIndex()
	if err != nil {
		t.Fatal(err)
	}
	flat := flatten(queries)
	out, err := idx.BatchKNN(flat, k)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func flatten(queries [][]float64) []float64 {
	var flat []float64
	for _, q := range queries {
		flat = append(flat, q...)
	}
	return flat
}

// cloneModel round-trips a model through its serialized form so tests can
// hold a pristine copy while the server owns the original.
func cloneModel(t testing.TB, m *mmdr.Model) *mmdr.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := mmdr.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameNeighbors asserts bitwise identity (IDs and Float64bits of the
// distances) between two answer lists.
func sameNeighbors(t testing.TB, what string, got, want []mmdr.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: answer %d = {%d %v}, want {%d %v}", what, i,
				got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

func TestServedAnswersBitwiseIdentical(t *testing.T) {
	model, queries := testModel(t, 1200, 24, 7)
	ref := cloneModel(t, model)
	const k = 5
	want := directAnswers(t, ref, queries, k)

	for _, shards := range []int{1, 3} {
		srv, err := New(model, Options{Shards: shards, MaxBatch: 4})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		got := make([][]mmdr.Neighbor, len(queries))
		errs := make([]error, len(queries))
		for i := range queries {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = srv.KNN(queries[i], k)
			}(i)
		}
		wg.Wait()
		for i := range queries {
			if errs[i] != nil {
				t.Fatalf("shards=%d query %d: %v", shards, i, errs[i])
			}
			sameNeighbors(t, "knn", got[i], want[i])
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		// Next round serves from a fresh copy: the server owned this one.
		model = cloneModel(t, ref)
	}
}

func TestServedRangeMatchesDirect(t *testing.T) {
	model, queries := testModel(t, 800, 16, 3)
	ref := cloneModel(t, model)
	const r = 0.25
	idx, err := ref.NewIndex()
	if err != nil {
		t.Fatal(err)
	}
	want, err := idx.BatchRange(flatten(queries), r)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(model, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	got := make([][]mmdr.Neighbor, len(queries))
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nbs, err := srv.Range(queries[i], r)
			if err != nil {
				t.Errorf("range %d: %v", i, err)
				return
			}
			got[i] = nbs
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := range queries {
		sameNeighbors(t, "range", got[i], want[i])
	}
}

func TestServedReadsSeeServedWrites(t *testing.T) {
	model, queries := testModel(t, 600, 16, 11)
	// direct applies the same writes as the server, from its own copy.
	direct, err := cloneModel(t, model).NewIndex()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(model, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const k = 5
	// Every served answer must be bitwise what the direct index answers:
	// the queries include the inserted points, so a read that missed a
	// write would lose or keep a distance-0 neighbor.
	sameAsDirect := func(what string) {
		t.Helper()
		want, err := direct.BatchKNN(flatten(queries), k)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			got, err := srv.KNN(q, k)
			if err != nil {
				t.Fatalf("%s: knn %d: %v", what, i, err)
			}
			sameNeighbors(t, what, got, want[i])
		}
	}

	// Insert a few new points; ids must match the direct index's.
	base := srv.Stats().Points
	var ids []int
	for i := 0; i < 5; i++ {
		id, err := srv.Insert(append([]float64(nil), queries[i]...))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		want, err := direct.Insert(append([]float64(nil), queries[i]...))
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("insert %d: served id %d, direct id %d", i, id, want)
		}
		ids = append(ids, id)
	}
	if got := srv.Stats().Points; got != base+5 {
		t.Errorf("points gauge %d, want %d", got, base+5)
	}
	sameAsDirect("knn after inserts")

	for _, id := range ids {
		found, err := srv.Delete(id)
		if err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", id, found, err)
		}
		if _, err := direct.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if found, err := srv.Delete(ids[0]); err != nil || found {
		t.Fatalf("double delete: found=%v err=%v", found, err)
	}
	if got := srv.Stats().Points; got != base {
		t.Errorf("points gauge %d after deletes, want %d", got, base)
	}
	sameAsDirect("knn after deletes")
}

func TestReloadSwapsModel(t *testing.T) {
	model, queries := testModel(t, 600, 16, 21)
	next, _ := testModel(t, 700, 16, 22)
	nextRef := cloneModel(t, next)

	reg := metrics.NewRegistry()
	srv, err := New(model, Options{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if gen := srv.Stats().Generation; gen != 0 {
		t.Fatalf("fresh generation %d", gen)
	}
	if err := srv.Reload(next); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Generation != 1 || st.Points != 700 {
		t.Fatalf("post-reload stats %+v", st)
	}
	// Served answers now come from the new model.
	const k = 3
	want := directAnswers(t, nextRef, queries[:4], k)
	for i, q := range queries[:4] {
		got, err := srv.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, "post-reload knn", got, want[i])
	}
}

func TestOverloadRejects(t *testing.T) {
	model, queries := testModel(t, 400, 16, 31)
	// One shard, two admission credits, and the index write lock held:
	// exactly two requests win credits and park (the worker's tile waits
	// for the read lock), so every other request must reject immediately.
	// Admission counts parked requests — credits are held until the answer
	// is sent, not just while queued — so the worker cannot launder the
	// bounded queue into unbounded pending state.
	srv, err := New(model, Options{Shards: 1, QueueDepth: 2, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.idxMu.Lock()
	unlock := sync.OnceFunc(srv.idxMu.Unlock)
	defer unlock() // before Close, which waits for the parked pair

	const clients = 64
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			_, err := srv.KNN(queries[i%len(queries)], 3)
			errs <- err
		}(i)
	}
	// The two credit winners block until the lock is released; all 62
	// losers reject.
	for i := 0; i < clients-2; i++ {
		switch err := <-errs; err {
		case ErrOverloaded:
		case nil:
			t.Fatal("request served while both credits were parked")
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	// Once the lock is released, Close must answer the parked pair, not
	// abandon it (the other half of the admission contract).
	unlock()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("parked request failed: %v", err)
		}
	}
}

func TestWriteOverloadRejects(t *testing.T) {
	model, queries := testModel(t, 400, 16, 33)
	const depth = 3
	srv, err := New(model, Options{QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// With the index write lock held, admitted writes park on it holding
	// their slots: exactly QueueDepth are admitted and every further write
	// must reject at once.
	srv.idxMu.Lock()
	unlock := sync.OnceFunc(srv.idxMu.Unlock)
	defer unlock() // before Close, which waits for the parked writes

	const writers = 16
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			var err error
			if i%2 == 0 {
				_, err = srv.Insert(append([]float64(nil), queries[i%len(queries)]...))
			} else {
				_, err = srv.Delete(i)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < writers-depth; i++ {
		if err := <-errs; err != ErrOverloaded {
			t.Fatalf("write %d beyond the %d slots: %v, want ErrOverloaded", i, depth, err)
		}
	}
	unlock()
	for i := 0; i < depth; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted write failed: %v", err)
		}
	}
}

func TestClosedServerRefuses(t *testing.T) {
	model, queries := testModel(t, 400, 16, 41)
	srv, err := New(model, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.KNN(queries[0], 3); err != ErrClosed {
		t.Errorf("KNN after Close: %v, want ErrClosed", err)
	}
	if _, err := srv.Insert(queries[0]); err != ErrClosed {
		t.Errorf("Insert after Close: %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	model, queries := testModel(t, 400, 16, 51)
	srv, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.KNN([]float64{1, 2, 3}, 3); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := srv.KNN(queries[0], 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := srv.Range(queries[0], -1); err == nil {
		t.Error("negative radius accepted")
	}
}
