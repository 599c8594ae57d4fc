package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
)

// PrometheusHandler serves the registry in the Prometheus text exposition
// format.
func PrometheusHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
}

// SnapshotHandler serves Registry.Snapshot as JSON — the machine-readable
// sibling of /metrics that awdtop and scripts consume without a Prometheus
// text parser.
func SnapshotHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(reg.Snapshot())
	})
}

// StreamTailResponse is the JSON body of the /stream drill-down endpoint.
type StreamTailResponse struct {
	Stream string      `json:"stream"`
	Events []StepEvent `json:"events"`
}

// StreamTailHandler serves a stream tail's retained events as JSON. A
// ?id=<stream> query retargets the tail before responding (the response to
// a retargeting request is therefore usually empty — the tail starts
// collecting the new stream from that moment).
func StreamTailHandler(tail *RingSink) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.URL.Query().Get("id"); id != "" {
			tail.Retarget(id)
		}
		evs := tail.Events()
		if evs == nil {
			evs = []StepEvent{} // "events": [] not null, for non-Go consumers
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(StreamTailResponse{Stream: tail.Target(), Events: evs})
	})
}

// NewMux bundles the whole diagnostic surface on one mux:
//
//	/metrics        Prometheus text format for the registry
//	/snapshot       the same registry as typed JSON (Registry.Snapshot)
//	/debug/vars     expvar (cmdline, memstats, anything published)
//	/debug/pprof/   live CPU/heap/goroutine profiling
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", PrometheusHandler(reg))
	mux.Handle("/snapshot", SnapshotHandler(reg))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "awd telemetry\n\n/metrics\n/snapshot\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// Server is a running telemetry endpoint.
type Server struct {
	// Addr is the bound address (useful with ":0").
	Addr string
	ln   net.Listener
	srv  *http.Server
}

// Serve starts the diagnostic endpoint on addr in a background goroutine.
func Serve(addr string, reg *Registry) (*Server, error) {
	return ServeHandler(addr, NewMux(reg))
}

// ServeHandler starts a background HTTP server for an arbitrary handler —
// the seam for callers that add routes (e.g. /stream) to the standard mux.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return &Server{Addr: ln.Addr().String(), ln: ln, srv: srv}, nil
}

// Close stops accepting connections.
func (s *Server) Close() error { return s.srv.Close() }

// Option customizes Bootstrap beyond the two standard flags.
type Option func(*bootstrapOpts)

type bootstrapOpts struct {
	tail *RingSink
}

// WithStreamTail attaches a single-stream drill-down tail: its events feed
// from the observer's trace stream (teed with any -trace-out sink) and it
// is served on the metrics mux as /stream (see StreamTailHandler). With a
// tail attached, a metricsAddr or tracePath is still required to enable
// observability at all.
func WithStreamTail(tail *RingSink) Option {
	return func(b *bootstrapOpts) { b.tail = tail }
}

// Bootstrap wires the standard CLI observability stack from the
// -metrics-addr / -trace-out flag values shared by the cmd/ tools. Both
// empty returns a nil (disabled) observer. tracePath "-" streams JSONL
// events to stdout; any other path truncates and writes that file. The
// returned address is the bound metrics endpoint ("" when not serving);
// the returned shutdown func closes the endpoint and the trace sink and is
// always non-nil.
func Bootstrap(metricsAddr, tracePath string, opts ...Option) (o *Observer, addr string, shutdown func() error, err error) {
	var bo bootstrapOpts
	for _, opt := range opts {
		opt(&bo)
	}
	shutdown = func() error { return nil }
	if metricsAddr == "" && tracePath == "" {
		return nil, "", shutdown, nil
	}
	var sink Sink = NopSink{}
	if tracePath != "" {
		if tracePath == "-" {
			sink = NewJSONLSink(nopCloser{os.Stdout})
		} else {
			f, err := os.Create(tracePath)
			if err != nil {
				return nil, "", shutdown, fmt.Errorf("obs: trace output: %w", err)
			}
			sink = NewJSONLSink(f)
		}
	}
	if bo.tail != nil {
		if _, nop := sink.(NopSink); nop {
			sink = bo.tail
		} else {
			sink = TeeSink(bo.tail, sink)
		}
	}
	o = NewObserver(NewRegistry(), sink)
	var srv *Server
	if metricsAddr != "" {
		mux := NewMux(o.Registry())
		if bo.tail != nil {
			mux.Handle("/stream", StreamTailHandler(bo.tail))
		}
		srv, err = ServeHandler(metricsAddr, mux)
		if err != nil {
			_ = sink.Close()
			return nil, "", func() error { return nil }, err
		}
		addr = srv.Addr
	}
	shutdown = func() error {
		var first error
		if srv != nil {
			first = srv.Close()
		}
		if err := o.Close(); err != nil && first == nil {
			first = err
		}
		return first
	}
	return o, addr, shutdown, nil
}

// nopCloser shields a shared writer (stdout) from JSONLSink.Close.
type nopCloser struct{ w *os.File }

func (n nopCloser) Write(p []byte) (int, error) { return n.w.Write(p) }
