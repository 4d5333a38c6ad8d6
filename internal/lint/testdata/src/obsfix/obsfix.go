// Package obs is a lint fixture standing in for the real exposition server.
// The publish tests preload it under the import path gpgpunoc/internal/obs,
// so the analyzer recognizes its Set* methods as retention sinks without the
// loader having to typecheck net/http.
package obs

// Server mirrors the snapshot-holding shape of the real obs.Server.
type Server struct {
	metrics  []byte
	state    []byte
	progress []byte
}

// SetMetrics publishes a metrics snapshot; the server retains b.
func (s *Server) SetMetrics(b []byte) { s.metrics = b }

// SetState publishes a state snapshot.
func (s *Server) SetState(b []byte) { s.state = b }

// SetProgress publishes a progress snapshot.
func (s *Server) SetProgress(b []byte) { s.progress = b }

// reset swaps a snapshot outside the publishing contract.
func (s *Server) reset() {
	s.metrics = nil // want "snapshot field s.metrics may only be assigned in Set"
}

// Snapshot mirrors the single-buffer holder the real Server's endpoints are
// made of.
type Snapshot struct{ b []byte }

// Set publishes a snapshot; the holder retains b.
func (s *Snapshot) Set(b []byte) { s.b = b }

// clear swaps the buffer outside the publishing contract.
func (s *Snapshot) clear() {
	s.b = nil // want "snapshot field s.b may only be assigned in Set"
}
