package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mat"
)

// httpServer is the HTTP/JSON fallback surface: the same five RPCs as the
// binary protocol, JSON-encoded, for scripting and debugging. Binary
// ingest is roughly an order of magnitude cheaper per sample (see
// BENCH_serve.json); the JSON path exists for accessibility, not
// throughput.
type httpServer struct {
	srv *http.Server
	ln  net.Listener
}

// openRequest is the POST /v1/open body.
type openRequest struct {
	Tenant   string `json:"tenant"`
	Stream   string `json:"stream"`
	Model    string `json:"model"`
	Strategy string `json:"strategy"`
	FixedWin int    `json:"fixed_win,omitempty"`
}

// ingestRequest is one sample of a POST /v1/ingest-batch body.
type ingestRequest struct {
	Handle   uint64    `json:"handle"`
	Estimate []float64 `json:"estimate"`
	Input    []float64 `json:"input"`
}

// ingestBatchRequest is the POST /v1/ingest-batch body.
type ingestBatchRequest struct {
	Items []ingestRequest `json:"items"`
}

// ingestBatchItemJSON is one sample's outcome in the batch response;
// exactly one of decision and error is set.
type ingestBatchItemJSON struct {
	Decision *decisionJSON `json:"decision,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// decisionJSON mirrors core.Decision for the JSON surface.
type decisionJSON struct {
	Step              int   `json:"step"`
	Window            int   `json:"window"`
	Deadline          int   `json:"deadline"`
	Alarm             bool  `json:"alarm"`
	Complementary     bool  `json:"complementary"`
	ComplementaryStep int   `json:"complementary_step"`
	Dims              []int `json:"dims,omitempty"`
}

func toDecisionJSON(d core.Decision) decisionJSON {
	return decisionJSON{
		Step:              d.Step,
		Window:            d.Window,
		Deadline:          d.Deadline,
		Alarm:             d.Alarm,
		Complementary:     d.Complementary,
		ComplementaryStep: d.ComplementaryStep,
		Dims:              d.Dims,
	}
}

// StartHTTP serves the JSON fallback on addr and returns the bound
// address. It shares the server's lifecycle: Close shuts it down.
func (s *Server) StartHTTP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/open", func(w http.ResponseWriter, r *http.Request) {
		var req openRequest
		if !decodeBody(w, r, &req, false) {
			return
		}
		h, err := s.Open(req.Tenant, req.Stream, req.Model, req.Strategy, req.FixedWin)
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		httpJSON(w, map[string]uint64{"handle": h})
	})
	mux.HandleFunc("POST /v1/ingest-batch", func(w http.ResponseWriter, r *http.Request) {
		var req ingestBatchRequest
		if !decodeBody(w, r, &req, false) {
			return
		}
		n := len(req.Items)
		handles := make([]uint64, n)
		items := make([]fleet.BatchItem, n)
		results := make([]fleet.BatchResult, n)
		for i, it := range req.Items {
			handles[i] = it.Handle
			items[i] = fleet.BatchItem{Estimate: mat.Vec(it.Estimate), AppliedU: mat.Vec(it.Input)}
		}
		b := s.batcher()
		err := s.IngestBatch(b, handles, items, results)
		s.batchers.Put(b)
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		out := make([]ingestBatchItemJSON, n)
		for i, res := range results {
			if res.Err != nil {
				out[i].Error = res.Err.Error()
			} else {
				d := toDecisionJSON(res.Decision)
				out[i].Decision = &d
			}
		}
		httpJSON(w, map[string]any{"items": out})
	})
	mux.HandleFunc("POST /v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name string `json:"name"`
		}
		if !decodeBody(w, r, &req, true) {
			return
		}
		path, n, err := s.Checkpoint(req.Name)
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		httpJSON(w, map[string]any{"path": path, "bytes": n})
	})
	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		s.Drain()
		httpJSON(w, map[string]bool{"draining": true})
	})
	mux.HandleFunc("POST /v1/restore", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name string `json:"name"`
		}
		if !decodeBody(w, r, &req, true) {
			return
		}
		n, err := s.Restore(req.Name)
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		httpJSON(w, map[string]int{"streams": n})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		httpJSON(w, s.Stats())
	})

	s.httpSrv = &httpServer{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		ln:  ln,
	}
	go func() { _ = s.httpSrv.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

func (h *httpServer) close() {
	_ = h.srv.Close()
	_ = h.ln.Close()
}

// decodeBody decodes r's JSON body into v and reports whether the handler
// should go on; on failure it has already answered. The body is read
// through a MaxFrame limit, the binary protocol's frame bound, so a
// hostile client cannot make the server allocate without bound: a longer
// body is answered 413. optional accepts a missing body (the RPCs whose
// only field defaults).
func decodeBody(w http.ResponseWriter, r *http.Request, v any, optional bool) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxFrame)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return false
	case optional && r.ContentLength <= 0:
		return true
	default:
		httpError(w, http.StatusBadRequest, err)
		return false
	}
}

func httpJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
}
