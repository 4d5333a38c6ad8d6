// External test package: the protocol-deadlock safety hook that
// config.Validate consults is registered by internal/core's init, which a
// test inside package config could not import (cycle). The CLIs always have
// it installed; these tests exercise the same arrangement.
package config_test

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
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

// TestFlagsSetEveryField sets all twelve configuration flags at once:
// each must land in its own field, both in Config() over Default() and in
// the overrides over a base that differs from Default() in every one of
// those fields and in others.
func TestFlagsSetEveryField(t *testing.T) {
	f := bind(t, "-placement", "top", "-routing", "yx", "-vcpolicy", "asymmetric",
		"-vcs", "4", "-depth", "6", "-reqvcs", "2", "-cycles", "1234", "-warmup", "56",
		"-seed", "9", "-dual", "-halfwidth", "-allow-unsafe")
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

// TestFlagsPerfKnobs: the shared flags carry no host-side performance knob.
// -workers, which chose the retired lane-parallel kernel's domain count, is
// an unknown flag.
func TestFlagsPerfKnobs(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	config.BindFlags(fs)
	if err := fs.Parse([]string{"-workers", "2"}); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("-workers 2 parsed with error %v, want an unknown-flag error", err)
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
