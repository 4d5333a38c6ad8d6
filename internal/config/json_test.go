package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")

	c := Default()
	c.NoC.Routing = RoutingYX
	c.NoC.VCPolicy = VCMonopolized
	c.Seed = 1234
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Errorf("round trip changed config:\nsaved  %+v\nloaded %+v", c, got)
	}
}

func TestWriteFileRejectsInvalid(t *testing.T) {
	c := Default()
	c.NoC.Routing = "spiral"
	if err := c.WriteFile(filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Error("invalid config saved")
	}
}

func TestParsePartialOverride(t *testing.T) {
	// A partial file overrides only the named fields.
	got, err := Parse([]byte(`{"NoC": {"Routing": "yx", "Width": 8, "Height": 8,
		"VCsPerPort": 4, "VCDepth": 4, "VCPolicy": "split",
		"AsymmetricRequestVCs": 1, "InjectionFlitsPerCycle": 4,
		"PhysicalSubnets": false}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.NoC.Routing != RoutingYX || got.NoC.VCsPerPort != 4 {
		t.Errorf("override not applied: %+v", got.NoC)
	}
	// Untouched sections keep defaults.
	if got.Core.NumSMs != 56 || got.Mem.NumMCs != 8 {
		t.Errorf("defaults lost: %+v", got)
	}
}

func TestParseRejectsUnknownField(t *testing.T) {
	if _, err := Parse([]byte(`{"Typo": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestDecodeRejectsRetiredKeys: files saved by WriteFile before the stepping
// knobs or the three settings the model never read were removed carry those
// keys; loading one must fail naming the key rather than silently dropping a
// setting the user once made.
func TestDecodeRejectsRetiredKeys(t *testing.T) {
	for key, doc := range map[string]string{
		"ReferenceStepper": `{"NoC": {"ReferenceStepper": false}}`,
		"RebalanceEpoch":   `{"NoC": {"RebalanceEpoch": 0}}`,
		"FastForward":      `{"FastForward": false}`,
		"MCReplyQueue":     `{"Mem": {"MCReplyQueue": 32}}`,
		"SIMTWidth":        `{"Core": {"SIMTWidth": 8}}`,
		"MaxPendingPer":    `{"Core": {"MaxPendingPer": 32}}`,
	} {
		_, err := Decode([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("Decode(%s) = %v, want an error naming %q", doc, err, key)
		}
	}
}

func TestParseRejectsInvalidValues(t *testing.T) {
	if _, err := Parse([]byte(`{"MeasureCycles": 0}`)); err == nil {
		t.Error("invalid value accepted")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWrittenFileIsReadableJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := Default().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[0] != '{' {
		t.Errorf("unexpected file contents: %q", data[:min(20, len(data))])
	}
}
