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
}

func TestFlagsOverridesOnlyExplicit(t *testing.T) {
	f := bind(t, "-routing", "yx", "-seed", "7")
	ov, err := f.Overrides()
	if err != nil {
		t.Fatal(err)
	}
	// The base's vcs and cycles differ from the flags' defaults and survive.
	base := config.Default()
	base.NoC.VCsPerPort = 4
	base.MeasureCycles = 500
	want := base
	want.NoC.Routing = config.RoutingYX
	want.Seed = 7
	if got := ov(base); got != want {
		t.Errorf("overrides mismatch:\n got %+v\nwant %+v", got, want)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	want = config.Default()
	want.NoC.Routing = config.RoutingYX
	want.Seed = 7
	if cfg != want {
		t.Errorf("Config() mismatch:\n got %+v\nwant %+v", cfg, want)
	}
}

// TestFlagsSetEveryField sets all thirteen configuration flags at once:
// each must land in its own field, both in Config() over Default() and in
// the overrides over a base that differs from Default() in every one of
// those fields and in others.
func TestFlagsSetEveryField(t *testing.T) {
	f := bind(t, "-placement", "top", "-routing", "yx", "-vcpolicy", "asymmetric",
		"-vcs", "4", "-depth", "6", "-reqvcs", "2", "-cycles", "1234", "-warmup", "56",
		"-seed", "9", "-dual", "-halfwidth", "-workers", "3", "-allow-unsafe")
	set := func(c config.Config) config.Config {
		c.Placement = config.PlacementTop
		c.NoC.Routing = config.RoutingYX
		c.NoC.VCPolicy = config.VCAsymmetric
		c.NoC.VCsPerPort = 4
		c.NoC.VCDepth = 6
		c.NoC.AsymmetricRequestVCs = 2
		c.MeasureCycles = 1234
		c.WarmupCycles = 56
		c.Seed = 9
		c.NoC.PhysicalSubnets = true
		c.NoC.SubnetHalfWidth = true
		c.NoC.Workers = 3
		c.AllowUnsafe = true
		return c
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if want := set(config.Default()); cfg != want {
		t.Errorf("Config() mismatch:\n got %+v\nwant %+v", cfg, want)
	}

	base := config.Default()
	base.Placement = config.PlacementEdge
	base.NoC.Routing = config.RoutingXYYX
	base.NoC.VCPolicy = config.VCMonopolized
	base.NoC.VCsPerPort = 8
	base.NoC.VCDepth = 2
	base.NoC.AsymmetricRequestVCs = 3
	base.MeasureCycles = 77
	base.WarmupCycles = 11
	base.Seed = 42
	base.NoC.Workers = 2
	base.NoC.Width, base.Mem.L2Ways, base.Core.WarpsPerSM = 10, 16, 24
	ov, err := f.Overrides()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ov(base), set(base); got != want {
		t.Errorf("overrides mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestFlagsOverridesRefuseConfigFile(t *testing.T) {
	f := bind(t, "-config", "cfg.json", "-routing", "yx")
	if ov, err := f.Overrides(); err == nil || ov != nil || !strings.Contains(err.Error(), "-config cfg.json") {
		t.Errorf("Overrides with -config = %v, want a refusal naming the file", err)
	}
}

func TestFlagsPerfKnobs(t *testing.T) {
	f := bind(t, "-workers", "4")
	want := config.Default()
	want.NoC.Workers = 4
	if ov, err := f.Overrides(); err != nil || ov(config.Default()) != want {
		t.Errorf("explicit -workers missing from overrides (err %v)", err)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
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
	ov, err := bind(t).Overrides()
	if err != nil {
		t.Fatal(err)
	}
	if got := ov(cfg); got != cfg {
		t.Errorf("empty overrides changed the config:\n got %+v\nwant %+v", got, cfg)
	}
}
