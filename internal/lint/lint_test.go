package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// newTestLoader builds a loader rooted at the module (two levels up from this
// package directory).
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// loadFixture typechecks testdata/src/<name> under the given import path.
func loadFixture(t *testing.T, l *Loader, name, importPath string) *Package {
	t.Helper()
	pkg, err := l.LoadDirAs(filepath.Join("testdata", "src", name), importPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return pkg
}

// want is one expectation parsed from a `// want "substring"` comment.
type want struct {
	line    int
	substr  string
	matched bool
}

var wantRE = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)
var quotedRE = regexp.MustCompile(`"([^"]*)"`)

// parseWants extracts the expectations from a fixture package's comments. A
// line may carry several quoted substrings when several findings land on it.
func parseWants(pkg *Package) []*want {
	var out []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
					out = append(out, &want{line: line, substr: q[1]})
				}
			}
		}
	}
	return out
}

// checkFixture runs one analyzer over the fixture and compares its findings
// bidirectionally against the want comments. Findings from other analyzers
// (e.g. the framework's directive diagnostics) are returned for the caller to
// assert on separately.
func checkFixture(t *testing.T, pkg *Package, a *Analyzer, modulePath string) []Finding {
	t.Helper()
	cfg := Config{} // no allowlist: fixtures manage suppression with directives
	findings := Run([]*Package{pkg}, []*Analyzer{a}, cfg, modulePath)

	wants := parseWants(pkg)
	var extra []Finding
	for _, f := range findings {
		if f.Analyzer != a.Name {
			extra = append(extra, f)
			continue
		}
		ok := false
		for _, w := range wants {
			if !w.matched && w.line == f.Pos.Line && strings.Contains(f.Message, w.substr) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding at line %d matching %q", w.line, w.substr)
		}
	}
	return extra
}

func TestDeterminismFixture(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "determfix", "gpgpunoc/testdata/determfix")
	extra := checkFixture(t, pkg, Determinism, l.ModulePath())

	// The reasonless directive in BadDirective and the misspelled one in
	// TypoDirective must be reported by the framework itself; they cannot
	// carry want comments because the directive line is the finding.
	var directiveFindings []Finding
	for _, f := range extra {
		if f.Analyzer == "noclint" {
			directiveFindings = append(directiveFindings, f)
		} else {
			t.Errorf("unexpected non-framework finding: %s", f)
		}
	}
	if len(directiveFindings) != 2 {
		t.Fatalf("got %d framework findings, want 2: %v", len(directiveFindings), directiveFindings)
	}
	for i, want := range []string{"needs a justification", "//noclint:determinsm names no analyzer"} {
		if f := directiveFindings[i]; !strings.Contains(f.Message, want) {
			t.Errorf("framework finding %d message = %q, want %q", i, f.Message, want)
		}
	}
}

func TestSeedflowFixture(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "seedfix", "gpgpunoc/testdata/seedfix")
	if extra := checkFixture(t, pkg, Seedflow, l.ModulePath()); len(extra) != 0 {
		t.Errorf("unexpected extra findings: %v", extra)
	}
}

func TestPaniclintFixture(t *testing.T) {
	l := newTestLoader(t)
	// paniclint only applies under <module>/internal/, so the fixture is
	// loaded with a synthetic internal import path.
	pkg := loadFixture(t, l, "panicfix", "gpgpunoc/internal/panicfix")
	if extra := checkFixture(t, pkg, Paniclint, l.ModulePath()); len(extra) != 0 {
		t.Errorf("unexpected extra findings: %v", extra)
	}
}

func TestPaniclintSkipsNonInternal(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "panicfix", "gpgpunoc/testdata/panicfix")
	findings := Run([]*Package{pkg}, []*Analyzer{Paniclint}, Config{}, l.ModulePath())
	if len(findings) != 0 {
		t.Errorf("paniclint reported %d findings outside internal/: %v", len(findings), findings)
	}
}

func TestConfigAllowed(t *testing.T) {
	cfg := Config{
		ModuleRoot: "/mod",
		Allow: map[string][]string{
			"determinism": {"cmd/", "internal/sweep/progress.go"},
		},
	}
	cases := []struct {
		analyzer, file string
		want           bool
	}{
		{"determinism", "/mod/cmd/sweep/main.go", true},
		{"determinism", "/mod/cmd/noclint/main.go", true},
		{"determinism", "/mod/internal/sweep/progress.go", true},
		{"determinism", "/mod/internal/sweep/engine.go", false},
		{"determinism", "/mod/internal/noc/network.go", false},
		{"seedflow", "/mod/cmd/sweep/main.go", false},
		{"paniclint", "/mod/internal/sweep/progress.go", false},
	}
	for _, c := range cases {
		if got := cfg.Allowed(c.analyzer, c.file); got != c.want {
			t.Errorf("Allowed(%q, %q) = %v, want %v", c.analyzer, c.file, got, c.want)
		}
	}
}

func TestExpandPatterns(t *testing.T) {
	l := newTestLoader(t)
	paths, err := l.Expand("./internal/...", "./cmd/...")
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	found := map[string]bool{}
	for _, p := range paths {
		found[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("Expand leaked a testdata package: %s", p)
		}
	}
	for _, must := range []string{
		"gpgpunoc/internal/noc",
		"gpgpunoc/internal/lint",
		"gpgpunoc/cmd/noclint",
	} {
		if !found[must] {
			t.Errorf("Expand missing %s (got %v)", must, paths)
		}
	}
}

// TestRepoIsClean runs the full suite over the repository's own production
// packages with the canonical configuration and requires zero findings: the
// tree must stay lint-clean, and the loader must typecheck every package.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecking the full module is slow")
	}
	l := newTestLoader(t)
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Expand("./internal/...", "./cmd/...")
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			t.Fatalf("Load(%s): %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	for _, f := range Run(pkgs, Analyzers(), DefaultConfig(root), l.ModulePath()) {
		t.Errorf("finding in clean tree: %s", f)
	}
}

// assertFindingString pins the compiler-style rendering editors rely on.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "determinism", Message: "boom"}
	f.Pos.Filename = "a/b.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	if got, want := f.String(), "a/b.go:3:7: determinism: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
