// The HTTP exposition server. The server never touches simulator state:
// the simulation goroutine renders snapshots to bytes at cycle boundaries
// and publishes them with Set*; handlers only read the latest published
// bytes (one Snapshot per endpoint). That split keeps the kernel
// single-threaded and makes /metrics and /state safe under the race
// detector mid-run.

package obs

import (
	"fmt"
	"net"
	"net/http"
	"time"
)

// Server serves the observability endpoints: /metrics (Prometheus text),
// /state (mesh-state JSON), /progress (run/sweep progress JSON), and
// /healthz. Construct with NewServer; publish snapshots with SetMetrics,
// SetStateJSON, and SetProgressJSON.
type Server struct {
	metrics, state, progress Snapshot

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
	mux.HandleFunc("/metrics", s.metrics.Handler("text/plain; version=0.0.4; charset=utf-8"))
	mux.HandleFunc("/state", s.state.Handler("application/json"))
	mux.HandleFunc("/progress", s.progress.Handler("application/json"))
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// ErrServerClosed after Close is the clean shutdown path; any
		// other serve error just stops the endpoint — the simulation
		// must not die because observability did.
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (resolves ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.http.Close() }

// SetMetrics publishes a rendered Prometheus exposition. The slice is
// retained and served concurrently: the caller must not mutate it afterwards.
func (s *Server) SetMetrics(b []byte) { s.metrics.Set(b) }

// SetStateJSON marshals and publishes a /state payload.
func (s *Server) SetStateJSON(v any) error { return s.state.SetJSON(v) }

// SetProgressJSON marshals and publishes a /progress payload.
func (s *Server) SetProgressJSON(v any) error { return s.progress.SetJSON(v) }
