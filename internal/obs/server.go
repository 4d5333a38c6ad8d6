// The HTTP exposition server. The server holds no state of its own: it
// serves one installed Renderer, and every scrape of /metrics, /state or
// /progress asks it for a fresh render on the request's goroutine. The
// Renderer decides where and when the state it reads is safe to read — the
// simulator answers at its next cycle boundary on the stepping goroutine
// (RunViews), the sweep tracker under its mutex — which keeps the kernel
// single-threaded and makes every endpoint safe under the race detector
// mid-run.

package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// View names one of the live views a Server serves.
type View int

const (
	ViewMetrics  View = iota // /metrics: Prometheus text exposition
	ViewState                // /state: a JSON snapshot of the observed state
	ViewProgress             // /progress: JSON progress, throughput and ETA
	numViews
)

// Renderer renders view v for one scrape. It runs on the request's
// goroutine and may wait until the state it reads can be read safely; when
// ctx (the request's context) ends first it gives up with ctx's error.
type Renderer func(ctx context.Context, v View) ([]byte, error)

// Server serves the observability endpoints: /metrics (Prometheus text),
// /state (JSON snapshot), /progress (run or sweep progress JSON), and
// /healthz. Construct with NewServer, then Install the views to serve;
// until then the three views answer 503.
type Server struct {
	render atomic.Pointer[Renderer]

	ln   net.Listener
	http *http.Server
}

// NewServer binds addr (e.g. "127.0.0.1:9177", or ":0" for an ephemeral
// port) and starts serving in a background goroutine.
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", Healthz)
	mux.HandleFunc("/metrics", s.serve(ViewMetrics, "text/plain; version=0.0.4; charset=utf-8"))
	mux.HandleFunc("/state", s.serve(ViewState, "application/json"))
	mux.HandleFunc("/progress", s.serve(ViewProgress, "application/json"))
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// ErrServerClosed after Close is the clean shutdown path; any
		// other serve error just stops the endpoint — the simulation
		// must not die because observability did.
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

// Install sets the views the server renders from. A server serves one view
// set: installing a second is a programming error and panics.
func (s *Server) Install(r Renderer) {
	if !s.render.CompareAndSwap(nil, &r) {
		panic("obs: views installed twice on one server")
	}
}

// serve renders view v for each request, answering 503 — never an empty
// 200 a scraper would mistake for data — while no views are installed or
// when the render gives up.
func (s *Server) serve(v View, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		render := s.render.Load()
		if render == nil {
			http.Error(w, "no views installed yet", http.StatusServiceUnavailable)
			return
		}
		b, err := (*render)(req.Context(), v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", contentType)
		_, _ = w.Write(b)
	}
}

// Healthz is the shared liveness handler: a constant 200 "ok".
func Healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Addr returns the bound listen address (resolves ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.http.Close() }
