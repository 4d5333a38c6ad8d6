package config

import (
	"flag"
	"fmt"
	"math"
)

// Obs is cmd/nocsim's per-packet span-tracing configuration: which packets
// to trace and where the span artifacts go. It is command-line-only state
// (not part of Config and not serialized): it instruments a run without
// changing what is simulated.
type Obs struct {
	// SampleRate is the span-tracing sample rate in (0, 1]: the expected
	// fraction of request packets traced end-to-end.
	SampleRate float64

	// SpansOut is the span JSONL log path ("" disables).
	SpansOut string

	// TraceOut is the Chrome trace-event JSON path ("" disables).
	TraceOut string
}

// SpansEnabled reports whether any span-tracing output was requested.
func (o Obs) SpansEnabled() bool { return o.SpansOut != "" || o.TraceOut != "" }

// Validate rejects unusable observability settings up front — a sample
// rate outside (0, 1] would otherwise silently trace nothing.
func (o Obs) Validate() error {
	if o.SampleRate <= 0 || o.SampleRate > 1 || math.IsNaN(o.SampleRate) {
		return fmt.Errorf("config: obs sample rate %v outside (0, 1]", o.SampleRate)
	}
	return nil
}

// ValidateTelemetryEpoch rejects a negative telemetry epoch: the sampler
// treats 0 as "off", but a negative epoch is always a typo (and would make
// the modulo-based sampler misbehave silently).
func ValidateTelemetryEpoch(epoch int64) error {
	if epoch < 0 {
		return fmt.Errorf("config: telemetry epoch %d cycles, need >= 0 (0 = off)", epoch)
	}
	return nil
}

// BindObsFlags registers the span-tracing flags on fs and returns the
// struct they fill in. Parse, then call Validate before use.
func BindObsFlags(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.Float64Var(&o.SampleRate, "obs-sample-rate", 0.01, "span-tracing sample rate in (0, 1]")
	fs.StringVar(&o.SpansOut, "spans", "", "write the span JSONL log of sampled packets to this file")
	fs.StringVar(&o.TraceOut, "span-trace", "", "write sampled-packet spans as Chrome trace-event JSON to this file")
	return o
}
