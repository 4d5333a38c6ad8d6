// Package lint is the repository's determinism check: one test that
// type-checks every production package under internal/ and cmd/ from source
// and fails on anything that would make a run depend on something other than
// its configuration. Sweep fingerprints, the result memo, the goldens and
// every figure rest on that property. The package has no non-test code; run
// it with `go test ./internal/lint`.
//
// Three rule sets run over every non-test file:
//
//   - determinism: no wall-clock read (time.Now, time.Since, ... called or
//     taken as a value), no math/rand import, no range over a map and no go
//     statement;
//   - seedflow: every rng.Stream comes from rng.New or Split (no composite
//     literal, no new, no value-typed declaration), and no goroutine closure
//     captures a stream declared outside it;
//   - paniclint: in internal/ packages a panic carries a package-prefixed
//     message ("noc: ..."), lives in a Must* function, or rethrows a value
//     bound straight from recover().
//
// A finding is suppressed by the allowlist below (determinism only) or by a
// `//noclint:<rule> <reason>` directive on its line or the line above. A
// directive naming no rule, carrying no reason, or suppressing no finding is
// itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// modPath is the module path in go.mod.
const modPath = "gpgpunoc"

// allowDeterminism exempts files from the determinism rules. A fragment
// ending in "/" exempts every file under that module-relative directory;
// otherwise it names one file. Command-line tools may read the wall clock and
// print in user-facing order. The sweep engine's job timing, its progress
// printer and the fabric's scheduler (lease deadlines, heartbeats, the HTTP
// server) measure real elapsed time: it decides when a job runs, never what
// it computes. The fabric's wire types and content store stay checked.
var allowDeterminism = []string{
	"cmd/",
	"internal/fabric/coordinator.go",
	"internal/fabric/fleet.go",
	"internal/fabric/server.go",
	"internal/fabric/worker.go",
	"internal/sweep/engine.go",
	"internal/sweep/progress.go",
}

// rules are the rule names a //noclint: directive may carry.
var rules = map[string]bool{"determinism": true, "seedflow": true, "paniclint": true}

// wallClockFuncs are the package-level time functions whose results depend
// on the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTicker": true, "NewTimer": true, "Sleep": true,
}

// prefixedMsg is the panic-message convention: a lowercase package-ish
// identifier, a colon, a space, then the explanation.
var prefixedMsg = regexp.MustCompile(`^[a-z][a-zA-Z0-9_/]*: \S`)

// finding is one rule violation at a source position.
type finding struct {
	pos  token.Position
	rule string
	msg  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.pos.Filename, f.pos.Line, f.pos.Column, f.rule, f.msg)
}

// pkg is one type-checked package.
type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the module's packages from their directories, caching
// each by import path, and hands standard-library imports to the source
// importer. Test files are not loaded: tests may use wall clocks, maps and
// bare panics.
type loader struct {
	fset *token.FileSet
	root string // absolute module root
	std  types.ImporterFrom
	pkgs map[string]*pkg
}

// sharedLoader is built once and serves the repository check and every
// fixture, so the standard library is type-checked once per test binary.
var sharedLoader = sync.OnceValues(func() (*loader, error) {
	root, err := filepath.Abs("../..")
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		root: root,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*pkg{},
	}, nil
})

func newLoader(t *testing.T) *loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, modPath+"/"); ok {
		p, err := l.load(filepath.Join(l.root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load type-checks the non-test files in dir as the package at import path.
func (l *loader) load(dir, path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	p := &pkg{path: path, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	return p, nil
}

// goFiles lists the non-test .go files in dir, sorted.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			names = append(names, n)
		}
	}
	return names, nil
}

// packageDirs lists the module-relative directories under internal/ and
// cmd/ that hold non-test Go, skipping testdata and directories whose name
// starts with "." or "_", as the go tool's ./... does.
func (l *loader) packageDirs() ([]string, error) {
	var dirs []string
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(l.root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			if names, err := goFiles(path); err != nil || len(names) == 0 {
				return err
			}
			rel, err := filepath.Rel(l.root, path)
			dirs = append(dirs, filepath.ToSlash(rel))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// allowed reports whether the module-relative file is exempt from the
// determinism rules.
func allowed(allow []string, rel string) bool {
	for _, frag := range allow {
		if rel == frag || strings.HasSuffix(frag, "/") && strings.HasPrefix(rel, frag) {
			return true
		}
	}
	return false
}

// check runs every rule over p's files and returns the findings that survive
// the allowlist and the directives, plus the directives' own findings.
func (l *loader) check(p *pkg, allow []string) []finding {
	var out []finding
	for _, f := range p.files {
		var raw []finding
		reporter := func(rule string) func(ast.Node, string, ...any) {
			return func(n ast.Node, format string, args ...any) {
				raw = append(raw, finding{l.fset.Position(n.Pos()), rule, fmt.Sprintf(format, args...)})
			}
		}
		rel, _ := filepath.Rel(l.root, l.fset.Position(f.Pos()).Filename)
		rel = filepath.ToSlash(rel)
		if !allowed(allow, rel) {
			determinism(p, f, reporter("determinism"))
		}
		if p.path != modPath+"/internal/rng" {
			seedflow(p, f, reporter("seedflow"))
		}
		if strings.HasPrefix(p.path, modPath+"/internal/") {
			paniclint(p, f, reporter("paniclint"))
		}
		for _, fd := range l.applyDirectives(f, raw) {
			fd.pos.Filename = rel
			out = append(out, fd)
		}
	}
	return out
}

// applyDirectives drops each raw finding covered by a //noclint:<rule>
// <reason> directive on its line or the line above, and reports every
// directive that names no rule, gives no reason or covers nothing.
func (l *loader) applyDirectives(f *ast.File, raw []finding) []finding {
	type directive struct {
		rule string
		pos  token.Position
		used bool
	}
	var dirs []*directive
	var out []finding
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//noclint:")
			if !ok {
				continue
			}
			rule, reason, _ := strings.Cut(rest, " ")
			pos := l.fset.Position(c.Pos())
			switch {
			case !rules[rule]:
				out = append(out, finding{pos, "noclint", fmt.Sprintf("//noclint:%s names no rule (determinism, seedflow or paniclint)", rule)})
			case strings.TrimSpace(reason) == "":
				out = append(out, finding{pos, "noclint", fmt.Sprintf("//noclint:%s needs a justification after the rule name", rule)})
			default:
				dirs = append(dirs, &directive{rule: rule, pos: pos})
			}
		}
	}
next:
	for _, r := range raw {
		for _, d := range dirs {
			if d.rule == r.rule && (d.pos.Line == r.pos.Line || d.pos.Line == r.pos.Line-1) {
				d.used = true
				continue next
			}
		}
		out = append(out, r)
	}
	for _, d := range dirs {
		if !d.used {
			out = append(out, finding{d.pos, "noclint", fmt.Sprintf("//noclint:%s suppresses no finding: delete it", d.rule)})
		}
	}
	return out
}

// determinism flags wall-clock functions (called or taken as a value),
// math/rand imports, range over a map and go statements.
func determinism(p *pkg, f *ast.File, report func(ast.Node, string, ...any)) {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "math/rand" || path == "math/rand/v2" {
			report(imp, "import of %s is nondeterministic: use the explicitly seeded internal/rng streams", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			// Only the package-level function: (time.Time).After is a pure
			// comparison, not a clock read.
			if fn, ok := p.info.Uses[n].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
				wallClockFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
				report(n, "time.%s reads the wall clock: simulation behavior and output must depend only on the configuration", fn.Name())
			}
		case *ast.RangeStmt:
			if t := p.info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					report(n, "map iteration order is nondeterministic: iterate a sorted or naturally ordered slice instead (type %s)", t)
				}
			}
		case *ast.GoStmt:
			report(n, "goroutine scheduling order is nondeterministic: no simulation package starts a goroutine")
		}
		return true
	})
}

// seedflow flags rng.Stream values made without rng.New or Split, and
// streams a goroutine closure captures from outside it.
func seedflow(p *pkg, f *ast.File, report func(ast.Node, string, ...any)) {
	isStream := func(t types.Type) bool {
		named, ok := t.(*types.Named)
		return ok && named.Obj().Name() == "Stream" && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == modPath+"/internal/rng"
	}
	// isStreamish accepts rng.Stream and *rng.Stream.
	isStreamish := func(t types.Type) bool {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		return t != nil && isStream(t)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if isStreamish(p.info.TypeOf(n)) {
				report(n, "rng.Stream composite literal bypasses seeding: construct streams with rng.New(seed) or parent.Split()")
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) == 1 && isBuiltin(p, id, "new") && isStreamish(p.info.TypeOf(n.Args[0])) {
				report(n, "new(rng.Stream) yields a zero-seeded stream: construct streams with rng.New(seed) or parent.Split()")
			}
		case *ast.Ident:
			// A value-typed variable, field, parameter or result starts as a
			// zero-seeded stream or forks the sequence when copied.
			if v, ok := p.info.Defs[n].(*types.Var); ok && isStream(v.Type()) {
				report(n, "%q declared as a value rng.Stream: zero values are implicitly seeded and copies fork the sequence; declare *rng.Stream initialized via rng.New/Split", n.Name)
			}
		case *ast.GoStmt:
			lit, ok := n.Call.Fun.(*ast.FuncLit)
			if !ok {
				break
			}
			seen := map[*types.Var]bool{}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := p.info.Uses[id].(*types.Var)
				if ok && !seen[v] && isStreamish(v.Type()) && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
					seen[v] = true
					kind := "variable"
					if v.IsField() {
						kind = "field"
					}
					report(id, "goroutine closure captures rng stream %s %q: pass a Split() child into the goroutine so draws stay deterministic under scheduling", kind, v.Name())
				}
				return true
			})
		}
		return true
	})
}

// paniclint flags a panic whose message carries no package prefix, outside
// Must* functions and recover-and-rethrow hooks.
func paniclint(p *pkg, f *ast.File, report func(ast.Node, string, ...any)) {
	// recovered holds the variables bound straight from recover(): panic(r)
	// of one rethrows the original value, which a prefix would destroy.
	recovered := map[types.Object]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			call, ok := as.Rhs[0].(*ast.CallExpr)
			lhs, isIdent := as.Lhs[0].(*ast.Ident)
			if ok && isIdent {
				if fn, ok := call.Fun.(*ast.Ident); ok && isBuiltin(p, fn, "recover") && p.info.Defs[lhs] != nil {
					recovered[p.info.Defs[lhs]] = true
				}
			}
		}
		return true
	})
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Must") {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || !isBuiltin(p, id, "panic") {
				return true
			}
			if len(call.Args) == 1 {
				if prefixedPanicArg(p, call.Args[0]) {
					return true
				}
				if id, ok := call.Args[0].(*ast.Ident); ok && recovered[p.info.Uses[id]] {
					return true
				}
			}
			name := p.types.Name()
			report(call, "bare panic in %s: prefix the message with the package name (\"%s: ...\") or move it into a Must* constructor", name, name)
			return true
		})
	}
}

// prefixedPanicArg reports whether a panic argument is statically known to
// carry a package-prefixed message: a string literal, the left end of a
// concatenation, or the format of fmt.Sprintf, Errorf or Sprint.
func prefixedPanicArg(p *pkg, arg ast.Expr) bool {
	switch e := arg.(type) {
	case *ast.BasicLit:
		s, err := strconv.Unquote(e.Value)
		return e.Kind == token.STRING && err == nil && prefixedMsg.MatchString(s)
	case *ast.BinaryExpr:
		return prefixedPanicArg(p, e.X)
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok || len(e.Args) == 0 {
			return false
		}
		if fn, ok := p.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Sprintf", "Errorf", "Sprint":
				return prefixedPanicArg(p, e.Args[0])
			}
		}
	}
	return false
}

// isBuiltin reports whether id refers to the named builtin, not a shadow.
func isBuiltin(p *pkg, id *ast.Ident, name string) bool {
	_, ok := p.info.Uses[id].(*types.Builtin)
	return ok && id.Name == name
}

// wantRE matches an expectation comment: `// want "substring" ...`, or
// `/* want "substring" */` in front of a //noclint: directive whose own
// line is the finding.
var wantRE = regexp.MustCompile(`^(?://|/\*) want ((?:"[^"]*"\s*)+)`)

var quotedRE = regexp.MustCompile(`"([^"]*)"`)

// loadFixture type-checks testdata/src/<name> as the package at import path.
func loadFixture(t *testing.T, name, path string) (*loader, *pkg) {
	t.Helper()
	l := newLoader(t)
	p, err := l.load(filepath.Join(l.root, "internal", "lint", "testdata", "src", name), path)
	if err != nil {
		t.Fatal(err)
	}
	return l, p
}

// checkFixture matches the fixture's findings, with no allowlist, against
// its want comments in both directions: every want is found on its line and
// every finding is wanted.
func checkFixture(t *testing.T, name, path string) {
	t.Helper()
	l, p := loadFixture(t, name, path)
	type want struct {
		line    int
		substr  string
		matched bool
	}
	var wants []*want
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := wantRE.FindStringSubmatch(c.Text); m != nil {
					for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
						wants = append(wants, &want{line: l.fset.Position(c.Pos()).Line, substr: q[1]})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", name)
	}
next:
	for _, f := range l.check(p, nil) {
		for _, w := range wants {
			if !w.matched && w.line == f.pos.Line && strings.Contains(f.msg, w.substr) {
				w.matched = true
				continue next
			}
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: missing finding at line %d matching %q", name, w.line, w.substr)
		}
	}
}

// TestDeterminismFixture: every determinism rule fires where wanted and
// nowhere else, and directive hygiene (no reason, unknown rule, stale)
// reports the directive itself.
func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, "determfix", modPath+"/testdata/determfix")
}

// TestSeedflowFixture: the four seedflow shapes, plus the go statements
// the determinism rules flag in the same file.
func TestSeedflowFixture(t *testing.T) {
	checkFixture(t, "seedfix", modPath+"/testdata/seedfix")
}

// TestPaniclintFixture: paniclint runs under internal/, so the fixture is
// checked under a synthetic internal import path.
func TestPaniclintFixture(t *testing.T) {
	checkFixture(t, "panicfix", modPath+"/internal/panicfix")
}

// TestPaniclintSkipsNonInternal: the same fixture outside internal/ has no
// finding at all.
func TestPaniclintSkipsNonInternal(t *testing.T) {
	l, p := loadFixture(t, "panicfix", modPath+"/testdata/panicfix")
	for _, f := range l.check(p, nil) {
		t.Errorf("finding outside internal/: %s", f)
	}
}

// TestConfigAllowed: the allowlist exempts the command tree and the named
// wall-clock files, and no simulation file.
func TestConfigAllowed(t *testing.T) {
	for rel, want := range map[string]bool{
		"cmd/sweep/main.go":              true,
		"internal/sweep/progress.go":     true,
		"internal/fabric/coordinator.go": true,
		"internal/sweep/spec.go":         false,
		"internal/fabric/protocol.go":    false,
		"internal/noc/network.go":        false,
	} {
		if got := allowed(allowDeterminism, rel); got != want {
			t.Errorf("allowed(%q) = %v, want %v", rel, got, want)
		}
	}
}

// TestExpandPatterns: the package set covers the simulation and the
// commands and leaves out testdata and test-only packages.
func TestExpandPatterns(t *testing.T) {
	dirs, err := newLoader(t).packageDirs()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, d := range dirs {
		found[d] = true
		if strings.Contains(d, "testdata") {
			t.Errorf("package set holds a testdata directory: %s", d)
		}
	}
	for d, want := range map[string]bool{"internal/noc": true, "internal/rng": true, "cmd/sweep": true, "internal/lint": false} {
		if found[d] != want {
			t.Errorf("package set holds %s = %v, want %v (got %v)", d, found[d], want, dirs)
		}
	}
}

// TestRepoIsClean type-checks every production package under internal/ and
// cmd/ and requires zero findings, directives' own included.
func TestRepoIsClean(t *testing.T) {
	l := newLoader(t)
	dirs, err := l.packageDirs()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		p, err := l.load(filepath.Join(l.root, filepath.FromSlash(d)), modPath+"/"+d)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range l.check(p, allowDeterminism) {
			t.Errorf("%s", f)
		}
	}
}
