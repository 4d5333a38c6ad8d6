package config

import "testing"

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
	if c.Core.SIMTWidth != 8 {
		t.Errorf("SIMTWidth = %d, want 8", c.Core.SIMTWidth)
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
