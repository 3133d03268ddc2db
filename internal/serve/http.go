package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"mmdr"
	"mmdr/internal/metrics"
)

// HTTP wire types. Distances survive the round trip bit-exact:
// encoding/json renders float64 with the shortest representation that
// re-parses to the identical bits, which is what lets the serving
// correctness gate assert bitwise identity against direct BatchKNN.
type (
	// KNNRequest is the POST /knn body.
	KNNRequest struct {
		Q []float64 `json:"q"`
		K int       `json:"k"`
	}
	// RangeRequest is the POST /range body.
	RangeRequest struct {
		Q []float64 `json:"q"`
		R float64   `json:"r"`
	}
	// InsertRequest is the POST /insert body.
	InsertRequest struct {
		P []float64 `json:"p"`
	}
	// DeleteRequest is the POST /delete body.
	DeleteRequest struct {
		ID int `json:"id"`
	}
	// NeighborJSON is one answer entry.
	NeighborJSON struct {
		ID   int     `json:"id"`
		Dist float64 `json:"dist"`
	}
	// NeighborsResponse answers /knn and /range.
	NeighborsResponse struct {
		Neighbors []NeighborJSON `json:"neighbors"`
	}
	// InsertResponse answers /insert.
	InsertResponse struct {
		ID int `json:"id"`
	}
	// DeleteResponse answers /delete.
	DeleteResponse struct {
		Found bool `json:"found"`
	}
	// OKResponse answers /healthz.
	OKResponse struct {
		OK         bool  `json:"ok"`
		Generation int64 `json:"generation,omitempty"`
	}
	// ErrorResponse is every non-2xx body.
	ErrorResponse struct {
		Error string `json:"error"`
	}
)

// toJSON converts index answers to the wire shape.
func toJSON(nbs []mmdr.Neighbor) []NeighborJSON {
	out := make([]NeighborJSON, len(nbs))
	for i, n := range nbs {
		out[i] = NeighborJSON{ID: n.ID, Dist: n.Dist}
	}
	return out
}

// maxBodyBytes bounds request bodies; a query vector of 4096 float64s is
// well under this, and it caps what a slow or malicious client can hold
// open.
const maxBodyBytes = 1 << 20

// httpServer pairs the net/http server with its listener.
type httpServer struct {
	srv *http.Server
	ln  net.Listener
}

// Handler returns the server's HTTP API:
//
//	POST /knn     {"q":[...],"k":10}    -> {"neighbors":[{"id":..,"dist":..},...]}
//	POST /range   {"q":[...],"r":0.5}   -> {"neighbors":[...]}
//	POST /insert  {"p":[...]}           -> {"id":123}
//	POST /delete  {"id":123}            -> {"found":true}
//	GET  /healthz                        -> {"ok":true}
//	GET  /statusz                        -> serve.Status JSON
//	GET  /metrics                        -> Prometheus text (with a registry)
//	GET  /debug/pprof/*                  -> pprof profiles
//
// Overload answers 429, shutdown 503, malformed input 400. There is no
// reload route: a model path taken from a request would let any client
// make the server open any file it can read. Reload and ReloadFrom swap
// models in process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/knn", func(w http.ResponseWriter, r *http.Request) {
		var req KNNRequest
		if !decodeBody(w, r, &req) {
			return
		}
		nbs, err := s.KNN(req.Q, req.K)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, NeighborsResponse{Neighbors: toJSON(nbs)})
	})
	mux.HandleFunc("/range", func(w http.ResponseWriter, r *http.Request) {
		var req RangeRequest
		if !decodeBody(w, r, &req) {
			return
		}
		nbs, err := s.Range(req.Q, req.R)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, NeighborsResponse{Neighbors: toJSON(nbs)})
	})
	mux.HandleFunc("/insert", func(w http.ResponseWriter, r *http.Request) {
		var req InsertRequest
		if !decodeBody(w, r, &req) {
			return
		}
		id, err := s.Insert(req.P)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, InsertResponse{ID: id})
	})
	mux.HandleFunc("/delete", func(w http.ResponseWriter, r *http.Request) {
		var req DeleteRequest
		if !decodeBody(w, r, &req) {
			return
		}
		found, err := s.Delete(req.ID)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, DeleteResponse{Found: found})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, OKResponse{OK: true})
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	if s.opts.Metrics != nil {
		mux.Handle("/metrics", metrics.Handler(s.opts.Metrics))
	}
	// pprof on the serving mux (explicit routes — the default mux is never
	// touched, same discipline as obs.StartDebugServer).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves the HTTP API until Close. Read timeouts bound what a slow client
// can hold open: a connection that dribbles its request slower than the
// deadline is closed, not accumulated.
func (s *Server) Start(addr string) (net.Addr, error) {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.hsrv != nil {
		return nil, errors.New("serve: Start called twice")
	}
	// Holding httpMu orders this check against closeHTTP: either Close's
	// shutdown sees the server registered below, or we see closing here.
	s.mu.RLock()
	closing := s.closing
	s.mu.RUnlock()
	if closing {
		return nil, ErrClosed
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	s.hsrv = &httpServer{srv: srv, ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		srv.Serve(ln) //nolint:errcheck — Serve returns on Shutdown/Close
	}()
	return ln.Addr(), nil
}

// Addr returns the bound listen address, or nil before Start.
func (s *Server) Addr() net.Addr {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.hsrv == nil {
		return nil
	}
	return s.hsrv.ln.Addr()
}

// closeHTTP quiesces the HTTP layer: stop accepting, let in-flight
// handlers finish (workers are still live so they can), then force-close
// stragglers (slow clients past their timeout).
func (s *Server) closeHTTP() {
	s.httpMu.Lock()
	h := s.hsrv
	s.httpMu.Unlock()
	if h == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		h.srv.Close() //nolint:errcheck — force-close after drain timeout
	}
}

// decodeBody parses a bounded JSON body; on failure it answers 400 and
// reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}

// writeError maps serving errors to status codes: overload 429, shutdown
// 503, everything else (validation) 400.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrOverloaded):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck — client gone is client's problem
}
