// Publish/serve helpers for Server. The pattern — a producer renders a
// snapshot to bytes and publishes it; HTTP handlers only read the latest
// published bytes under a read lock, answering 503 before the first
// publication — is what Server's three endpoints are made of. It suits a
// producer that owns its state on one goroutine, like the simulation loop;
// the fabric coordinator, whose state sits under a mutex, renders at the
// request instead and shares only WriteSnapshot and Healthz.
// The published slice is retained and served concurrently, so callers must
// treat it as frozen after Set. Every caller meets this by publishing a
// buffer rendered for that call alone: Server.SetMetrics receives
// telemetry.Registry.RenderPrometheus output (obs.Progress, the sweep
// tracker), and SetJSON — under Server.SetStateJSON and SetProgressJSON —
// marshals into a fresh slice.

package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// Snapshot is one immutable published buffer: Set swaps in a freshly
// rendered []byte, Serve writes the latest under a read lock. The zero
// value is ready to use and serves 503 until the first Set.
type Snapshot struct {
	mu sync.RWMutex
	b  []byte
}

// Set publishes a rendered snapshot. The slice is retained and read by
// concurrent handlers: the caller must not mutate it afterwards.
func (s *Snapshot) Set(b []byte) {
	s.mu.Lock()
	s.b = b
	s.mu.Unlock()
}

// SetJSON marshals v and publishes the result.
func (s *Snapshot) SetJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("obs: marshal snapshot: %w", err)
	}
	s.Set(b)
	return nil
}

// Bytes returns the latest published snapshot (nil before the first Set).
// The returned slice is the published buffer itself: read-only.
func (s *Snapshot) Bytes() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.b
}

// Serve writes the latest published snapshot with the given content type,
// or 503 before the first publication.
func (s *Snapshot) Serve(w http.ResponseWriter, contentType string) {
	WriteSnapshot(w, contentType, s.Bytes())
}

// Handler adapts the snapshot to an http.HandlerFunc.
func (s *Snapshot) Handler(contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		s.Serve(w, contentType)
	}
}

// WriteSnapshot writes published bytes as an HTTP response, mapping "not
// published yet" (empty) to 503 so scrapers can distinguish "starting up"
// from an empty result.
func WriteSnapshot(w http.ResponseWriter, contentType string, b []byte) {
	if len(b) == 0 {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(b)
}

// Healthz is the shared liveness handler: a constant 200 "ok".
func Healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
