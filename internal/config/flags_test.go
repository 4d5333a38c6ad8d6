// External test package: the protocol-deadlock safety hook that
// config.Validate consults is registered by internal/core's init, which a
// test inside package config could not import (cycle). The CLIs always have
// it installed; these tests exercise the same arrangement.
package config_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gpgpunoc/internal/config"
	_ "gpgpunoc/internal/core" // registers the safety check
)

func bind(t *testing.T, args ...string) *config.Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := config.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFlagsDefaultIsBaseline(t *testing.T) {
	f := bind(t)
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg != config.Default() {
		t.Errorf("no flags must yield Default():\n got %+v\nwant %+v", cfg, config.Default())
	}
	if o, err := f.Overrides(); err != nil || o != (config.Overrides{}) {
		t.Errorf("no flags set but Overrides = %+v, %v", o, err)
	}
}

func TestFlagsOverridesOnlyExplicit(t *testing.T) {
	f := bind(t, "-routing", "yx", "-seed", "7")
	o, err := f.Overrides()
	if err != nil {
		t.Fatal(err)
	}
	if o.Routing == nil || *o.Routing != config.RoutingYX {
		t.Errorf("explicit -routing missing from overrides: %+v", o)
	}
	if o.Seed == nil || *o.Seed != 7 {
		t.Errorf("explicit -seed missing from overrides: %+v", o)
	}
	if o.Placement != nil || o.VCsPerPort != nil || o.MeasureCycles != nil {
		t.Errorf("unset flags leaked into overrides: %+v", o)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := config.Default()
	want.NoC.Routing = config.RoutingYX
	want.Seed = 7
	if cfg != want {
		t.Errorf("Config() mismatch:\n got %+v\nwant %+v", cfg, want)
	}
}

func TestFlagsPerfKnobs(t *testing.T) {
	f := bind(t, "-workers", "4")
	if o, err := f.Overrides(); err != nil || o.Workers == nil || *o.Workers != 4 {
		t.Errorf("explicit -workers missing from overrides: %+v", o)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := config.Default()
	want.NoC.Workers = 4
	if cfg != want {
		t.Errorf("Config() mismatch:\n got %+v\nwant %+v", cfg, want)
	}
	if _, err := bind(t, "-workers", "-3").Config(); err == nil {
		t.Error("negative -workers accepted")
	}
}

func TestWarnings(t *testing.T) {
	// The lanes-vs-Ps advisory depends on the runtime; give the geometry
	// cases Ps to spare, then pin it on its own below.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(64))
	if w := config.Default().Warnings(); len(w) != 0 {
		t.Errorf("baseline configuration warns: %v", w)
	}
	// More workers than rows: lanes are row stripes, so some would be empty.
	cfg := config.Default()
	cfg.NoC.Workers = cfg.NoC.Height + 1
	if w := cfg.Warnings(); len(w) != 1 {
		t.Errorf("workers > rows produced %d warnings, want 1: %v", len(w), w)
	}
	// More workers than routers subsumes the rows advisory; exactly one
	// warning should name the router clamp.
	cfg.NoC.Workers = cfg.NoC.Width*cfg.NoC.Height + 1
	if w := cfg.Warnings(); len(w) != 1 {
		t.Errorf("workers > routers produced %d warnings, want 1: %v", len(w), w)
	}
	// Workers equal to the row count is fine.
	cfg.NoC.Workers = cfg.NoC.Height
	if w := cfg.Warnings(); len(w) != 0 {
		t.Errorf("workers == rows warned: %v", w)
	}
	// More lanes than Ps: the kernel runs one goroutine per P, not per lane.
	runtime.GOMAXPROCS(2)
	cfg.NoC.Workers = 4
	if w := cfg.Warnings(); len(w) != 1 || !strings.Contains(w[0], "lanes are stepped by 2 goroutines") {
		t.Errorf("4 lanes on 2 Ps: warnings %v, want the goroutine-count advisory", w)
	}
	cfg.NoC.Workers = 2
	if w := cfg.Warnings(); len(w) != 0 {
		t.Errorf("2 lanes on 2 Ps warned: %v", w)
	}
}

func TestFlagsFileThenFlagPrecedence(t *testing.T) {
	base := config.Default()
	base.NoC.Routing = config.RoutingYX
	base.NoC.VCsPerPort = 8
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The flag overrides the file's routing; the file's vcs survives even
	// though -vcs has a (different) default.
	f := bind(t, "-config", path, "-routing", "xy")
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NoC.Routing != config.RoutingXY {
		t.Errorf("explicit flag lost to file: routing = %s", cfg.NoC.Routing)
	}
	if cfg.NoC.VCsPerPort != 8 {
		t.Errorf("file value clobbered by unset flag default: vcs = %d", cfg.NoC.VCsPerPort)
	}
}

func TestFlagsConfigValidates(t *testing.T) {
	f := bind(t, "-routing", "spiral")
	if _, err := f.Config(); err == nil {
		t.Error("invalid routing accepted")
	}
	f = bind(t, "-placement", "diamond", "-vcpolicy", "monopolized")
	if _, err := f.Config(); err == nil {
		t.Error("protocol-unsafe combination accepted without -allow-unsafe")
	}
	f = bind(t, "-placement", "diamond", "-vcpolicy", "monopolized", "-allow-unsafe")
	if _, err := f.Config(); err != nil {
		t.Errorf("-allow-unsafe rejected: %v", err)
	}
}

func TestOverridesApplyEmptyIsIdentity(t *testing.T) {
	cfg := config.Default()
	cfg.NoC.VCDepth = 9
	if got := (config.Overrides{}).Apply(cfg); got != cfg {
		t.Errorf("empty overrides changed the config:\n got %+v\nwant %+v", got, cfg)
	}
}
