package config

import (
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default configuration invalid: %v", err)
	}
}

func TestDefaultMatchesTable2(t *testing.T) {
	c := Default()
	// Table 2 of the paper, verbatim.
	if c.Core.NumSMs != 56 {
		t.Errorf("NumSMs = %d, want 56", c.Core.NumSMs)
	}
	if c.Mem.NumMCs != 8 {
		t.Errorf("NumMCs = %d, want 8", c.Mem.NumMCs)
	}
	if c.NoC.Width != 8 || c.NoC.Height != 8 {
		t.Errorf("mesh = %dx%d, want 8x8", c.NoC.Width, c.NoC.Height)
	}
	if c.NoC.Routing != RoutingXY {
		t.Errorf("routing = %s, want xy", c.NoC.Routing)
	}
	if c.NoC.VCsPerPort != 2 || c.NoC.VCDepth != 4 {
		t.Errorf("VCs = %d depth %d, want 2 depth 4", c.NoC.VCsPerPort, c.NoC.VCDepth)
	}
	if c.Placement != PlacementBottom {
		t.Errorf("placement = %s, want bottom", c.Placement)
	}
	if c.Mem.L1DataBytes != 16<<10 || c.Mem.L1Ways != 4 {
		t.Errorf("L1D = %dB/%d-way, want 16KB/4-way", c.Mem.L1DataBytes, c.Mem.L1Ways)
	}
	if c.Mem.L2BytesPerMC != 64<<10 || c.Mem.L2Ways != 8 {
		t.Errorf("L2 = %dB/%d-way, want 64KB/8-way", c.Mem.L2BytesPerMC, c.Mem.L2Ways)
	}
	if c.Mem.MinL2Cycles != 120 || c.Mem.MinDRAMCycles != 220 {
		t.Errorf("latencies = %d/%d, want 120/220", c.Mem.MinL2Cycles, c.Mem.MinDRAMCycles)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := map[string]func(*Config){
		"tiny mesh":             func(c *Config) { c.NoC.Width = 1 },
		"zero VCs":              func(c *Config) { c.NoC.VCsPerPort = 0 },
		"too many VCs":          func(c *Config) { c.NoC.VCsPerPort = 13; c.NoC.VCPolicy = VCShared; c.AllowUnsafe = true },
		"zero depth":            func(c *Config) { c.NoC.VCDepth = 0 },
		"bad routing":           func(c *Config) { c.NoC.Routing = "zigzag" },
		"bad policy":            func(c *Config) { c.NoC.VCPolicy = "magic" },
		"split needs 2 VCs":     func(c *Config) { c.NoC.VCsPerPort = 1 },
		"asymmetric zero req":   func(c *Config) { c.NoC.VCPolicy = VCAsymmetric; c.NoC.AsymmetricRequestVCs = 0 },
		"asymmetric all req":    func(c *Config) { c.NoC.VCPolicy = VCAsymmetric; c.NoC.AsymmetricRequestVCs = c.NoC.VCsPerPort },
		"bad placement":         func(c *Config) { c.Placement = "middle" },
		"too many MCs":          func(c *Config) { c.Mem.NumMCs = 100 },
		"too many tiles":        func(c *Config) { c.Core.NumSMs = 64 },
		"line not power of two": func(c *Config) { c.Mem.LineBytes = 100 },
		"no measurement":        func(c *Config) { c.MeasureCycles = 0 },
		"odd subnet VCs":        func(c *Config) { c.NoC.PhysicalSubnets = true; c.NoC.VCsPerPort = 3; c.NoC.VCPolicy = VCShared },
	}
	for name, mutate := range mutations {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", name)
		}
	}
}

// TestValidateEndpointGeometry: memory and core geometry that gpu.New or a
// run cannot use is refused here, by name, instead of panicking inside
// cache.New or dram.New, indexing an empty warp table, or wedging.
func TestValidateEndpointGeometry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"L1 data not whole sets", func(c *Config) { c.Mem.L1DataBytes = 1000 }, "L1 data cache 1000B/4-way"},
		{"L1 instruction not whole sets", func(c *Config) { c.Mem.L1InstBytes = 100 }, "L1 instruction cache 100B/4-way"},
		{"zero L1 ways", func(c *Config) { c.Mem.L1Ways = 0 }, "L1 data cache"},
		{"zero L2 ways", func(c *Config) { c.Mem.L2Ways = 0 }, "L2 cache 65536B/0-way"},
		{"L1 data sets not a power of two", func(c *Config) { c.Mem.L1DataBytes = 12 << 10 }, "L1 data cache 12288B/4-way with 128B lines has 24 sets, not a power of two"},
		{"L1 instruction sets not a power of two", func(c *Config) { c.Mem.L1InstBytes = 1536 }, "L1 instruction cache 1536B/4-way with 128B lines has 3 sets"},
		{"L2 sets not a power of two", func(c *Config) { c.Mem.L2Ways = 16; c.Mem.L2BytesPerMC = 48 << 10 }, "L2 cache 49152B/16-way with 128B lines has 24 sets"},
		{"zero DRAM banks", func(c *Config) { c.Mem.DRAMBanksPerMC = 0 }, "DRAM needs positive banks (0)"},
		{"zero row buffer", func(c *Config) { c.Mem.RowBufferBytes = 0 }, "row buffer bytes (0)"},
		{"zero DRAM latency", func(c *Config) { c.Mem.MinDRAMCycles = 0 }, "latency (0)"},
		{"zero warps", func(c *Config) { c.Core.WarpsPerSM = 0 }, "warp per SM"},
		{"zero MC request queue", func(c *Config) { c.Mem.MCRequestQueue = 0 }, "MC request queue"},
		{"zero MSHRs", func(c *Config) { c.Mem.L1MSHRs = 0 }, "L1 MSHR"},
	} {
		c := Default()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), "config: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want a config: error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestEnumerations(t *testing.T) {
	if len(Routings()) != 3 {
		t.Errorf("want 3 routing algorithms, got %d", len(Routings()))
	}
	if len(Placements()) != 4 {
		t.Errorf("want 4 evaluated placements, got %d", len(Placements()))
	}
}

func TestVariantsValid(t *testing.T) {
	for _, r := range Routings() {
		for _, p := range Placements() {
			c := Default()
			c.NoC.Routing = r
			c.Placement = p
			if err := c.Validate(); err != nil {
				t.Errorf("%s + %s: %v", r, p, err)
			}
		}
	}
}
