package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLaneownerFixture(t *testing.T) {
	l := newTestLoader(t)
	// laneowner only applies to packages whose import path ends in
	// /internal/noc, so the fixture is loaded under a synthetic one.
	pkg := loadFixture(t, l, "laneownerfix", "gpgpunoc/fix/internal/noc")
	if extra := checkFixture(t, pkg, Laneowner, l.ModulePath()); len(extra) != 0 {
		t.Errorf("unexpected extra findings: %v", extra)
	}
}

func TestLaneownerSkipsOtherPackages(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "laneownerfix", "gpgpunoc/testdata/laneownerfix")
	findings := Run([]*Package{pkg}, []*Analyzer{Laneowner}, Config{}, l.ModulePath())
	if len(findings) != 0 {
		t.Errorf("laneowner reported %d findings outside internal/noc: %v", len(findings), findings)
	}
}

func TestPublishFixture(t *testing.T) {
	l := newTestLoader(t)
	// Preload the mini obs server under the real import path: the fixture's
	// import then resolves to it from the loader cache, and the analyzer
	// recognizes its Set* methods as retention sinks.
	obsPkg := loadFixture(t, l, "obsfix", "gpgpunoc/internal/obs")
	if extra := checkFixture(t, obsPkg, Publish, l.ModulePath()); len(extra) != 0 {
		t.Errorf("unexpected extra findings in obs fixture: %v", extra)
	}
	pkg := loadFixture(t, l, "publishfix", "gpgpunoc/testdata/publishfix")
	if extra := checkFixture(t, pkg, Publish, l.ModulePath()); len(extra) != 0 {
		t.Errorf("unexpected extra findings: %v", extra)
	}
}

// TestLaneownerCatchesSeededMutation is the analyzer's end-to-end proof: a
// direct cross-lane write injected into the real parallel kernel must be
// caught. The noc sources are copied to a temp dir, a shared-state store is
// inserted at the top of the worker's lane cycle, and the mutated package is
// typechecked under a synthetic /internal/noc import path.
func TestLaneownerCatchesSeededMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecking internal/noc and its dependencies is slow")
	}
	l := newTestLoader(t)
	src := filepath.Join("..", "noc")
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	const anchor = "func (n *Network) laneCycle(ln *lane) {"
	mutated := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "parallel.go" {
			if !strings.Contains(string(data), anchor) {
				t.Fatalf("anchor %q not found in parallel.go", anchor)
			}
			data = []byte(strings.Replace(string(data), anchor, anchor+"\n\tn.lastMove = n.cycle", 1))
			mutated = true
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !mutated {
		t.Fatal("parallel.go not found in internal/noc")
	}
	pkg, err := l.LoadDirAs(dst, "gpgpunoc/mutant/internal/noc")
	if err != nil {
		t.Fatalf("typecheck mutated noc: %v", err)
	}
	findings := Run([]*Package{pkg}, []*Analyzer{Laneowner}, Config{}, l.ModulePath())
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the seeded mutation: %v", len(findings), findings)
	}
	f := findings[0]
	if !strings.Contains(f.Message, "n.lastMove") || !strings.Contains(f.Message, "laneCycle") {
		t.Errorf("finding does not pinpoint the seeded write: %s", f)
	}
}
