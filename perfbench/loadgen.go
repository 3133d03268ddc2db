package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"mmdr/internal/serve"
)

// opKind is the operation of one scheduled request.
type opKind uint8

const (
	opKNN opKind = iota
	opInsert
	opDelete
)

func (o opKind) String() string {
	switch o {
	case opKNN:
		return "knn"
	case opInsert:
		return "insert"
	default:
		return "delete"
	}
}

// arrival is one scheduled request: when it is due after the window
// starts, what it does, and its argument (query, insert point or delete
// id index into the run's inputs).
type arrival struct {
	at   time.Duration
	kind opKind
	arg  int
}

// mix is the share of each operation in a schedule.
type mix struct{ knn, insert, delete float64 }

// schedule draws an open-loop arrival schedule of round(rate×seconds)
// requests: Poisson arrivals conditioned on their count (exponential gaps
// rescaled to span the window), with exactly the mix's share of each
// operation at seeded positions. Fixing the count keeps the offered load
// identical across seeds; the gaps stay seeded. KNN requests cycle
// through the queries from a seeded offset; writes take fresh insert
// points and delete ids from *nextIns and *nextDel.
func schedule(rng *rand.Rand, rate, seconds float64, m mix, queries int, nextIns, nextDel *int) []arrival {
	n := int(math.Round(rate * seconds))
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	kinds := make([]opKind, n)
	nIns := int(math.Round(m.insert * float64(n)))
	nDel := int(math.Round(m.delete * float64(n)))
	for i := range kinds {
		switch {
		case i < nIns:
			kinds[i] = opInsert
		case i < nIns+nDel:
			kinds[i] = opDelete
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	out := make([]arrival, n)
	q := rng.Intn(queries)
	var t float64
	for i := range out {
		t += gaps[i]
		a := arrival{at: time.Duration(t / total * seconds * float64(time.Second)), kind: kinds[i]}
		switch a.kind {
		case opKNN:
			a.arg = q % queries
			q++
		case opInsert:
			a.arg = *nextIns
			*nextIns++
		case opDelete:
			a.arg = *nextDel
			*nextDel++
		}
		out[i] = a
	}
	return out
}

// outcome is what one request returned.
type outcome struct {
	status int    // HTTP status (200 for in-process successes)
	body   []byte // response body, for answer checks after the window
	err    error  // transport or call error
}

// sample is one completed request of an open-loop run.
type sample struct {
	lat  time.Duration // scheduled send time to last response byte
	late time.Duration // how late the request was sent against its schedule
	outcome
}

// spinWindow is how long before a request is due the dispatcher stops
// sleeping and starts yielding.
const spinWindow = time.Millisecond

// openLoop replays sched against do from conns concurrent senders (one
// connection each), sending every request at its scheduled time whether or
// not earlier ones have answered. A request waits only when every sender is
// busy; that wait counts in both its latency and its lateness. It returns
// one sample per arrival and the window length: from the schedule's start
// to the last response.
func openLoop(sched []arrival, conns int, do func(conn int, a arrival, rid int64) outcome) ([]sample, time.Duration) {
	samples := make([]sample, len(sched))
	work := make(chan int, len(sched)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range work {
				due := start.Add(sched[i].at)
				sent := time.Now()
				out := do(c, sched[i], int64(i))
				samples[i] = sample{lat: time.Since(due), late: sent.Sub(due), outcome: out}
			}
		}(c)
	}
	for i, a := range sched {
		due := start.Add(a.at)
		// Sleep to just short of the due time, then yield until it: a
		// sleeping goroutine wakes up to a millisecond late on the
		// benchmark's VM, which would count as server latency.
		if d := time.Until(due) - spinWindow; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return samples, time.Since(start)
}

// httpSender sends scheduled requests to a serve.Server over HTTP, one
// keep-alive connection per sender. Request bodies are encoded before the
// window; spans go to tr under parent.
type httpSender struct {
	url     string
	clients []*http.Client
	knn     [][]byte // per query
	ins     [][]byte // per insert point
	del     [][]byte // per delete id
	tr      *tracer
	parent  int64
}

func newHTTPSender(url string, conns int, in *inputs) (*httpSender, error) {
	h := &httpSender{url: url}
	for c := 0; c < conns; c++ {
		h.clients = append(h.clients, newClient())
	}
	for i := 0; i < in.numQueries(); i++ {
		b, err := json.Marshal(serve.KNNRequest{Q: in.query(i), K: k})
		if err != nil {
			return nil, err
		}
		h.knn = append(h.knn, b)
	}
	for i := 0; i*in.dim < len(in.inserts); i++ {
		b, err := json.Marshal(serve.InsertRequest{P: in.insertPoint(i)})
		if err != nil {
			return nil, err
		}
		h.ins = append(h.ins, b)
	}
	for _, id := range in.deletes {
		b, err := json.Marshal(serve.DeleteRequest{ID: id})
		if err != nil {
			return nil, err
		}
		h.del = append(h.del, b)
	}
	return h, nil
}

// send performs one scheduled request on connection conn.
func (h *httpSender) send(conn int, a arrival, rid int64) outcome {
	var body []byte
	switch a.kind {
	case opKNN:
		body = h.knn[a.arg]
	case opInsert:
		body = h.ins[a.arg]
	default:
		body = h.del[a.arg]
	}
	id := h.tr.begin("serve.http."+a.kind.String(), h.parent, rid)
	defer h.tr.end(id)
	return post(h.clients[conn], h.url+"/"+a.kind.String(), body)
}

// post sends one JSON request and reads the whole response.
func post(c *http.Client, url string, body []byte) outcome {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcome{err: fmt.Errorf("reading response: %w", err)}
	}
	return outcome{status: resp.StatusCode, body: b}
}

func (h *httpSender) close() {
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
}
