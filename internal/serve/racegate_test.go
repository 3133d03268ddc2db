package serve

// The race gate: adversarial schedules driven through the serving
// subsystem under `go test -race` (make racegate). Each scenario runs
// inside verify.RunScenarios, which brackets it with a goroutine-leak
// baseline and a stall watchdog — so a scenario fails loudly on a data
// race (race detector), a leaked worker/coalescer/listener (verify.Leak),
// or a request that never gets an answer (verify.Watchdog), instead of
// hanging the suite or passing silently.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"mmdr/internal/verify"
)

// raceGateDeadline bounds every tracked operation. Generous because the
// race detector slows execution ~10x; a healthy server answers in
// microseconds, so tripping this still means a real stall.
const raceGateDeadline = 30 * time.Second

func TestRaceGate(t *testing.T) {
	iters, clients := 120, 12
	if testing.Short() {
		iters, clients = 25, 6
	}
	verify.RunScenarios(t, raceGateDeadline, []verify.Scenario{
		{Name: "mixed_load", Run: func(t *testing.T, w *verify.Watchdog) {
			scenarioMixedLoad(t, w, iters, clients)
		}},
		{Name: "reload_storm", Run: func(t *testing.T, w *verify.Watchdog) {
			scenarioReloadStorm(t, w, iters, clients)
		}},
		{Name: "overload_then_drain", Run: func(t *testing.T, w *verify.Watchdog) {
			scenarioOverloadThenDrain(t, w, clients*8)
		}},
		{Name: "slow_client_writes", Run: scenarioSlowClient},
		{Name: "racing_close", Run: func(t *testing.T, w *verify.Watchdog) {
			scenarioRacingClose(t, w, clients)
		}},
	})
}

// readErr filters the errors a load scenario tolerates: overload is the
// admission contract working, closed is a racing shutdown doing its job.
func tolerable(err error) bool {
	return err == nil || err == ErrOverloaded || err == ErrClosed
}

// scenarioMixedLoad hammers one server with interleaved KNN, Range,
// Insert, and Delete from many clients: read tiles and writes contend for
// the shared index lock. Every request must complete (the watchdog tracks
// each round trip) without a data race.
func scenarioMixedLoad(t *testing.T, w *verify.Watchdog, iters, clients int) {
	model, queries := testModel(t, 500, 16, 101)
	srv, err := New(model, Options{Shards: 3, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var myIDs []int
			for i := 0; i < iters; i++ {
				q := queries[(c*iters+i)%len(queries)]
				switch i % 4 {
				case 0:
					w.Wrap("knn", func() {
						if _, err := srv.KNN(q, 3); !tolerable(err) {
							t.Errorf("knn: %v", err)
						}
					})
				case 1:
					w.Wrap("range", func() {
						if _, err := srv.Range(q, 0.3); !tolerable(err) {
							t.Errorf("range: %v", err)
						}
					})
				case 2:
					w.Wrap("insert", func() {
						id, err := srv.Insert(q)
						if !tolerable(err) {
							t.Errorf("insert: %v", err)
						} else if err == nil {
							myIDs = append(myIDs, id)
						}
					})
				case 3:
					if len(myIDs) == 0 {
						continue
					}
					id := myIDs[len(myIDs)-1]
					myIDs = myIDs[:len(myIDs)-1]
					w.Wrap("delete", func() {
						if _, err := srv.Delete(id); !tolerable(err) {
							t.Errorf("delete: %v", err)
						}
					})
				}
			}
		}(c)
	}
	wg.Wait()
	w.Wrap("close", func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}

// scenarioReloadStorm swaps the model repeatedly while readers stream
// queries. Snapshot consistency means every answer comes from exactly one
// model generation — never a crash, never a mixed batch (a query vector
// valid for both models must always get a coherent answer).
func scenarioReloadStorm(t *testing.T, w *verify.Watchdog, iters, clients int) {
	model, queries := testModel(t, 500, 16, 111)
	alt, _ := testModel(t, 650, 16, 112)
	srv, err := New(model, Options{Shards: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stopReads := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopReads:
					return
				default:
				}
				q := queries[(c+i)%len(queries)]
				w.Wrap("storm-knn", func() {
					nbs, err := srv.KNN(q, 3)
					if !tolerable(err) {
						t.Errorf("knn during reload: %v", err)
					}
					if err == nil && len(nbs) == 0 {
						t.Error("knn during reload returned no neighbors")
					}
				})
			}
		}(c)
	}
	reloads := iters / 10
	if reloads < 4 {
		reloads = 4
	}
	for r := 0; r < reloads; r++ {
		// Reload hands model ownership to the server, so each swap installs
		// a fresh copy.
		next := cloneModel(t, alt)
		if r%2 == 1 {
			next = cloneModel(t, model)
		}
		w.Wrap("reload", func() {
			if err := srv.Reload(next); err != nil {
				t.Errorf("reload %d: %v", r, err)
			}
		})
	}
	close(stopReads)
	wg.Wait()
	if gen := srv.Stats().Generation; gen != int64(reloads) {
		t.Errorf("generation %d after %d reloads", gen, reloads)
	}
	w.Wrap("close", func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}

// scenarioOverloadThenDrain saturates a tiny admission window while the
// held index write lock parks the winners, then closes the server with
// them still parked. The contract: every admitted request is answered,
// every rejected request fails fast, nobody hangs — Close must wait the
// parked winners out, not abandon them.
func scenarioOverloadThenDrain(t *testing.T, w *verify.Watchdog, clients int) {
	model, queries := testModel(t, 400, 16, 121)
	srv, err := New(model, Options{Shards: 1, QueueDepth: 2, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv.idxMu.Lock()
	var wg sync.WaitGroup
	var served, rejected int64
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.Wrap("overload-knn", func() {
				_, err := srv.KNN(queries[c%len(queries)], 3)
				mu.Lock()
				defer mu.Unlock()
				switch err {
				case nil:
					served++
				case ErrOverloaded, ErrClosed:
					rejected++
				default:
					t.Errorf("unexpected error: %v", err)
				}
			})
		}(c)
	}
	// Close once both credit winners are parked behind the write lock,
	// and release the lock only once Close is draining.
	for srv.shards[0].credits.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		w.Wrap("close-under-load", func() {
			if err := srv.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		})
	}()
	for !srv.Stats().Closing {
		time.Sleep(time.Millisecond)
	}
	srv.idxMu.Unlock()
	<-closed
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if served+rejected != int64(clients) {
		t.Errorf("%d served + %d rejected != %d clients", served, rejected, clients)
	}
}

// scenarioSlowClient dribbles a request over a raw TCP connection while
// regular clients query over HTTP, then closes the server. The read
// timeouts must shed the dribbler; Close must not wait on it forever.
func scenarioSlowClient(t *testing.T, w *verify.Watchdog) {
	model, queries := testModel(t, 400, 16, 131)
	srv, err := New(model, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	// The dribbler: a request header that never finishes.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	dribbleDone := make(chan struct{})
	go func() {
		defer close(dribbleDone)
		defer conn.Close()
		for _, chunk := range []string{"POST /knn HT", "TP/1.1\r\nHost: x\r\nCont"} {
			if _, err := conn.Write([]byte(chunk)); err != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		// Hold the half-written request open; the server's header timeout
		// or Close must cut it loose without our cooperation.
		time.Sleep(200 * time.Millisecond)
	}()

	// Healthy traffic flows beside the dribbler.
	body, _ := json.Marshal(KNNRequest{Q: queries[0], K: 3})
	for i := 0; i < 10; i++ {
		w.Wrap("http-knn", func() {
			resp, err := client.Post(base+"/knn", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("healthy client: %v", err)
				return
			}
			defer resp.Body.Close()
			var out NeighborsResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Neighbors) != 3 {
				t.Errorf("healthy client: decode err %v, %d neighbors", err, len(out.Neighbors))
			}
		})
	}
	w.Wrap("close-with-dribbler", func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	<-dribbleDone
}

// scenarioRacingClose fires Close from several goroutines in the middle
// of a query storm. Every Close returns (after the same single shutdown),
// every client gets an answer or a clean refusal.
func scenarioRacingClose(t *testing.T, w *verify.Watchdog, clients int) {
	model, queries := testModel(t, 400, 16, 141)
	srv, err := New(model, Options{Shards: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(c+i)%len(queries)]
				w.Wrap("racing-knn", func() {
					if _, err := srv.KNN(q, 3); !tolerable(err) {
						t.Errorf("knn: %v", err)
					}
				})
			}
		}(c)
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.Wrap(fmt.Sprintf("close-%d", c), func() {
				if err := srv.Close(); err != nil {
					t.Errorf("racing close %d: %v", c, err)
				}
			})
		}(c)
	}
	wg.Wait()
	// After every racer returned, the server must refuse new work.
	if _, err := srv.KNN(queries[0], 3); err != ErrClosed {
		t.Errorf("KNN after racing closes: %v, want ErrClosed", err)
	}
}
