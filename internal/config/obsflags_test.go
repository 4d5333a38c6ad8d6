package config

import (
	"flag"
	"math"
	"strings"
	"testing"
)

func TestObsValidateSampleRate(t *testing.T) {
	for _, rate := range []float64{0, -0.5, 1.5, math.NaN()} {
		o := Obs{SampleRate: rate}
		if err := o.Validate(); err == nil {
			t.Errorf("rate %v accepted", rate)
		} else if !strings.Contains(err.Error(), "config:") {
			t.Errorf("rate %v: error %q lacks the config prefix", rate, err)
		}
	}
	for _, rate := range []float64{0.001, 0.5, 1} {
		if err := (Obs{SampleRate: rate}).Validate(); err != nil {
			t.Errorf("rate %v rejected: %v", rate, err)
		}
	}
}

func TestValidateTelemetryEpoch(t *testing.T) {
	if err := ValidateTelemetryEpoch(-1); err == nil {
		t.Error("negative epoch accepted")
	} else if !strings.Contains(err.Error(), "config:") {
		t.Errorf("error %q lacks the config prefix", err)
	}
	for _, e := range []int64{0, 1, 1000} {
		if err := ValidateTelemetryEpoch(e); err != nil {
			t.Errorf("epoch %d rejected: %v", e, err)
		}
	}
}

func TestBindObsFlagsDefaultsValidate(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := BindObsFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	if o.SpansEnabled() {
		t.Fatal("spans enabled with no output flags set")
	}
	if err := fs.Parse([]string{"-spans", "x.jsonl", "-obs-sample-rate", "0.2"}); err != nil {
		t.Fatal(err)
	}
	if !o.SpansEnabled() || o.SampleRate != 0.2 {
		t.Fatalf("flag binding broken: %+v", o)
	}
}
