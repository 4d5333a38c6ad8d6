// The coordinator's HTTP surface: a background Serve goroutine behind a
// constructor that binds first (so ":0" resolves and failures are
// synchronous), and JSON everywhere but /metrics and /healthz. Every read is
// rendered from coordinator state when it is requested.
//
// Client API:
//
//	POST /submit               sweep.Spec JSON      -> SubmitResponse
//	GET  /sweeps/{id}                               -> SweepStatus
//	GET  /sweeps/{id}/results                       -> Record JSONL, expansion order
//	GET  /sweeps/{id}/timeline                      -> fleetobs.Timeline JSON
//	     (?format=chrome for a Perfetto/chrome://tracing trace)
//	GET  /results/{fingerprint}                     -> Record JSON (content-addressed)
//	GET  /workers                                   -> []WorkerInfo
//	GET  /progress                                  -> Progress JSON
//	GET  /metrics                                   -> Prometheus text
//	GET  /healthz                                   -> "ok"
//
// Worker API (all POST, JSON request/response):
//
//	/register /lease /heartbeat /complete
package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/sweep"
)

// Server exposes a Coordinator over HTTP.
type Server struct {
	co   *Coordinator
	ln   net.Listener
	http *http.Server
}

// NewServer binds addr (":0" for an ephemeral port) and starts serving the
// coordinator in a background goroutine.
func NewServer(addr string, co *Coordinator) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	s := &Server{co: co, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", healthz)
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, co.Progress()) })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(co.Metrics())
	})
	mux.HandleFunc("/workers", s.handleWorkers)
	mux.HandleFunc("/submit", s.handleSubmit)
	mux.HandleFunc("/sweeps/", s.handleSweeps)
	mux.HandleFunc("/results/", s.handleResult)
	mux.HandleFunc("/register", post(s.co.Register))
	mux.HandleFunc("/lease", post(s.co.Lease))
	mux.HandleFunc("/heartbeat", post(s.co.Heartbeat))
	mux.HandleFunc("/complete", post(s.co.Complete))
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// ErrServerClosed after Close is the clean shutdown; any other serve
		// error just stops the endpoint, like the obs server.
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (resolves ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.http.Close() }

// post adapts a typed coordinator method to a JSON POST handler.
func post[Req, Resp any](fn func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := fn(req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, resp)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// ParseSpec gives the same unknown-field rejection as the CLI path: a
	// typo in a submitted spec must not silently shrink the design space.
	spec, err := sweep.ParseSpec(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := s.co.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sweeps/")
	id, tail, _ := strings.Cut(rest, "/")
	switch tail {
	case "":
		st, err := s.co.Status(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, st)
	case "results":
		recs, _, err := s.co.Results(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		sink := sweep.NewJSONL(w)
		for _, rec := range recs {
			if err := sink.Write(rec); err != nil {
				return // client went away mid-stream
			}
		}
	case "timeline":
		tl, err := s.co.Timeline(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			_ = fleetobs.WriteChromeTimeline(w, tl)
			return
		}
		writeJSON(w, tl)
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	fp := strings.TrimPrefix(r.URL.Path, "/results/")
	rec, err := s.co.Result(fp)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, rec)
}

func (s *Server) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, struct {
		Workers []WorkerInfo `json:"workers"`
	}{Workers: s.co.Workers()})
}

// healthz is the liveness handler: a constant 200 "ok".
func healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if ce, ok := err.(*coordErr); ok {
		status = ce.status
	}
	http.Error(w, err.Error(), status)
}
