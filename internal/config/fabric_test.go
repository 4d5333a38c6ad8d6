package config

import (
	"flag"
	"strings"
	"testing"
	"time"
)

func validFabric() Fabric {
	return Fabric{LeaseJobs: 4, LeaseTTL: 30 * time.Second, MaxAttempts: 3}
}

func TestFabricValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Fabric)
		wantErr string
	}{
		{"default single", func(f *Fabric) {}, ""},
		{"serve", func(f *Fabric) { f.Serve = "127.0.0.1:0" }, ""},
		{"connect", func(f *Fabric) { f.Connect = "http://127.0.0.1:9178" }, ""},
		{"both roles", func(f *Fabric) { f.Serve = ":0"; f.Connect = "http://x" }, "mutually exclusive"},
		{"connect not a URL", func(f *Fabric) { f.Connect = "127.0.0.1:9178" }, "not a URL"},
		{"zero lease batch", func(f *Fabric) { f.LeaseJobs = 0 }, "-lease-jobs"},
		{"zero ttl", func(f *Fabric) { f.LeaseTTL = 0 }, "-lease-ttl"},
		{"zero attempts", func(f *Fabric) { f.MaxAttempts = 0 }, "-max-attempts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validFabric()
			tc.mutate(&f)
			err := f.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestFabricMode(t *testing.T) {
	if got := (Fabric{}).Mode(); got != "single" {
		t.Errorf("Mode() = %q, want single", got)
	}
	if got := (Fabric{Serve: ":0"}).Mode(); got != "serve" {
		t.Errorf("Mode() = %q, want serve", got)
	}
	if got := (Fabric{Connect: "http://x"}).Mode(); got != "connect" {
		t.Errorf("Mode() = %q, want connect", got)
	}
}

func TestBindFabricFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := BindFabricFlags(fs)
	if err := fs.Parse([]string{"-serve", "127.0.0.1:0", "-lease-jobs", "2", "-lease-ttl", "2s", "-max-attempts", "5"}); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if f.Serve != "127.0.0.1:0" || f.LeaseJobs != 2 || f.LeaseTTL != 2*time.Second || f.MaxAttempts != 5 {
		t.Errorf("parsed fabric = %+v", f)
	}
	// Defaults must validate: a bare -serve invocation works out of the box.
	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	f2 := BindFabricFlags(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatalf("parse defaults: %v", err)
	}
	if err := f2.Validate(); err != nil {
		t.Fatalf("default fabric flags invalid: %v", err)
	}
}
