package config

import (
	"flag"
	"fmt"
	"strings"
	"time"
)

// Fabric is the distributed-sweep configuration shared by cmd/sweep's
// coordinator and worker modes. Like Obs it is command-line-only state —
// it decides where jobs run, never what they simulate — so it is not part
// of Config and not serialized into fingerprints.
type Fabric struct {
	// Serve is the coordinator listen address ("" = not a coordinator).
	Serve string

	// Connect is the coordinator base URL a worker reports to
	// ("" = not a worker). Mutually exclusive with Serve.
	Connect string

	// StoreDir is the coordinator's content-addressed result store
	// directory ("" = derive from the output path).
	StoreDir string

	// LeaseJobs bounds how many jobs one lease hands a worker.
	LeaseJobs int

	// LeaseTTL is how long a lease lives without a heartbeat before its
	// jobs are re-queued for another worker. Workers renew every LeaseTTL/3.
	LeaseTTL time.Duration

	// MaxAttempts caps how often a job is handed out (initial attempt plus
	// retries after worker loss or failure) before it is quarantined as a
	// poison job.
	MaxAttempts int
}

// Mode names the role the fabric flags select: "single" (default, no
// fabric), "serve" (coordinator) or "connect" (worker).
func (f Fabric) Mode() string {
	switch {
	case f.Serve != "":
		return "serve"
	case f.Connect != "":
		return "connect"
	default:
		return "single"
	}
}

// Validate rejects unusable fabric settings up front: conflicting roles, a
// worker that would outlive its own lease, or retry/batch bounds that can
// never dispatch a job.
func (f Fabric) Validate() error {
	if f.Serve != "" && f.Connect != "" {
		return fmt.Errorf("config: -serve and -connect are mutually exclusive (one process is a coordinator or a worker, not both)")
	}
	if f.Connect != "" && !strings.Contains(f.Connect, "://") {
		return fmt.Errorf("config: -connect %q is not a URL (want e.g. http://127.0.0.1:9178)", f.Connect)
	}
	if f.LeaseJobs < 1 {
		return fmt.Errorf("config: -lease-jobs %d, need >= 1", f.LeaseJobs)
	}
	if f.LeaseTTL <= 0 {
		return fmt.Errorf("config: -lease-ttl %v, need > 0", f.LeaseTTL)
	}
	if f.MaxAttempts < 1 {
		return fmt.Errorf("config: -max-attempts %d, need >= 1", f.MaxAttempts)
	}
	return nil
}

// BindFabricFlags registers the distributed-sweep flags on fs and returns
// the struct they fill in. Parse, then call Validate before use.
func BindFabricFlags(fs *flag.FlagSet) *Fabric {
	f := &Fabric{}
	fs.StringVar(&f.Serve, "serve", "", "run as sweep coordinator on this address (e.g. 127.0.0.1:9178; empty = single-process)")
	fs.StringVar(&f.Connect, "connect", "", "run as sweep worker against this coordinator URL (e.g. http://127.0.0.1:9178)")
	fs.StringVar(&f.StoreDir, "store", "", "coordinator content-addressed result store directory (default: <out>.store)")
	fs.IntVar(&f.LeaseJobs, "lease-jobs", 4, "max jobs per worker lease batch")
	fs.DurationVar(&f.LeaseTTL, "lease-ttl", 30*time.Second, "lease lifetime without a heartbeat before jobs are re-queued (workers renew every third of it)")
	fs.IntVar(&f.MaxAttempts, "max-attempts", 3, "attempts per job before poison quarantine")
	return f
}
