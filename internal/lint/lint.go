// Package lint is a standard-library-only static-analysis suite guarding the
// two properties the whole reproduction rests on: bit-exact determinism
// (identical configurations must produce identical results — sweep resume
// fingerprints, the test suite and every figure depend on it) and disciplined
// failure behavior in the simulation hot paths.
//
// Three analyzers run over the module's production code:
//
//   - determinism: forbids wall-clock reads (time.Now, time.Since, ...),
//     math/rand, and map iteration inside simulation packages, all of which
//     make results depend on something other than the configuration.
//   - seedflow: every rng.Stream must originate from rng.New or Split with an
//     explicit seed; zero-value streams and streams captured by goroutine
//     closures are flagged.
//   - paniclint: no bare panic in internal packages — a panic must carry a
//     package-prefixed message (the "noc: ..." convention) or live in a
//     Must* constructor.
//
// Findings at wall-clock-legitimate sites are suppressed by an explicit
// per-analyzer path allowlist (DefaultConfig) or by a justified source
// directive: `//noclint:<analyzer> <reason>` on or immediately above the
// offending line. A directive without a reason, or naming no analyzer, is
// itself a finding, so every suppression is documented in place.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer diagnosis at a source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the finding the way compilers do, so editors can jump to it.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check over a typechecked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Context) []Finding
}

// Analyzers returns the full suite in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Determinism, Seedflow, Paniclint}
}

// Context is what an analyzer sees: the package under analysis plus the
// run configuration.
type Context struct {
	Pkg *Package
	Cfg Config

	// ModulePath is the module's import path prefix, used to recognize
	// module-internal packages (e.g. the rng package for seedflow).
	ModulePath string
}

// Config tunes a lint run.
type Config struct {
	// Allow maps an analyzer name to path fragments exempt from it. A
	// fragment ending in "/" exempts every file under that directory
	// (relative to the module root, e.g. "cmd/"); otherwise it exempts
	// files whose module-relative path matches exactly (e.g.
	// "internal/sweep/progress.go").
	Allow map[string][]string

	// ModuleRoot is the absolute module root used to relativize file paths
	// for allowlist matching and output.
	ModuleRoot string
}

// DefaultConfig is the repository's canonical lint configuration: command
// line tools may read the wall clock and print in user-facing order, the
// sweep progress printer and the engine's job timing measure real elapsed
// time (they never feed simulation state), and the lint package itself is tooling, not
// simulation. The fabric scheduler (coordinator lease deadlines, worker
// heartbeats, the HTTP server goroutine) is orchestration around the
// engine: wall-clock time decides WHEN a job runs, never WHAT it
// computes — its wire types and content store (protocol.go, store.go)
// stay under the analyzer.
func DefaultConfig(moduleRoot string) Config {
	return Config{
		ModuleRoot: moduleRoot,
		Allow: map[string][]string{
			Determinism.Name: {
				"cmd/",
				"internal/lint/",
				"internal/fabric/coordinator.go",
				"internal/fabric/fleet.go",
				"internal/fabric/server.go",
				"internal/fabric/worker.go",
				"internal/sweep/engine.go",
				"internal/sweep/progress.go",
			},
		},
	}
}

// rel returns the module-relative slash path of filename.
func (c Config) rel(filename string) string {
	if c.ModuleRoot != "" && strings.HasPrefix(filename, c.ModuleRoot) {
		filename = strings.TrimPrefix(strings.TrimPrefix(filename, c.ModuleRoot), "/")
	}
	return filename
}

// Allowed reports whether the analyzer is exempted for the file.
func (c Config) Allowed(analyzer, filename string) bool {
	path := c.rel(filename)
	for _, frag := range c.Allow[analyzer] {
		if strings.HasSuffix(frag, "/") {
			if strings.HasPrefix(path, frag) {
				return true
			}
		} else if path == frag {
			return true
		}
	}
	return false
}

// directive is one parsed //noclint comment.
type directive struct {
	analyzer string // analyzer name or "*"
	reason   string
	line     int
	pos      token.Position
}

// parseDirectives extracts //noclint:<analyzer> <reason> comments from a
// file. Directives missing a reason or naming no analyzer of the full suite
// are returned separately as findings: an unjustified suppression is itself a
// defect, and a misspelled one would silently suppress nothing.
func parseDirectives(fset *token.FileSet, f *ast.File) ([]directive, []Finding) {
	var dirs []directive
	var bad []Finding
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//noclint:")
			if !ok {
				continue
			}
			name, reason, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			msg := ""
			switch {
			case !knownAnalyzer(name):
				msg = fmt.Sprintf("//noclint:%s names no analyzer (see noclint -list)", name)
			case strings.TrimSpace(reason) == "":
				msg = fmt.Sprintf("//noclint:%s directive needs a justification after the analyzer name", name)
			default:
				dirs = append(dirs, directive{analyzer: name, reason: reason, line: pos.Line, pos: pos})
				continue
			}
			bad = append(bad, Finding{Analyzer: "noclint", Pos: pos, Message: msg})
		}
	}
	return dirs, bad
}

// knownAnalyzer reports whether a directive's name is "*" or one of the full
// suite's analyzers, regardless of which subset the run selected.
func knownAnalyzer(name string) bool {
	if name == "*" {
		return true
	}
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// suppressed reports whether a finding at pos is covered by a directive on
// the same line or the line immediately above.
func suppressed(dirs []directive, analyzer string, pos token.Position) bool {
	for _, d := range dirs {
		if d.analyzer != analyzer && d.analyzer != "*" {
			continue
		}
		if d.pos.Filename == pos.Filename && (d.line == pos.Line || d.line == pos.Line-1) {
			return true
		}
	}
	return false
}

// Run executes the analyzers over the packages and returns all surviving
// findings sorted by position. Directive parsing and suppression are applied
// uniformly so analyzers stay oblivious to them.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg Config, modulePath string) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		var dirs []directive
		for _, f := range pkg.Files {
			d, bad := parseDirectives(pkg.Fset, f)
			dirs = append(dirs, d...)
			for _, b := range bad {
				b.Pos.Filename = cfg.rel(b.Pos.Filename)
				out = append(out, b)
			}
		}
		for _, a := range analyzers {
			ctx := &Context{Pkg: pkg, Cfg: cfg, ModulePath: modulePath}
			for _, f := range a.Run(ctx) {
				if cfg.Allowed(a.Name, f.Pos.Filename) || suppressed(dirs, a.Name, f.Pos) {
					continue
				}
				f.Pos.Filename = cfg.rel(f.Pos.Filename)
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// enclosingFuncName returns the name of the innermost named function or
// method declaration containing pos in the file, or "" when pos sits outside
// any (e.g. a package-level var initializer's closure is attributed to the
// closest FuncDecl; var blocks yield "").
func enclosingFuncName(f *ast.File, pos token.Pos) string {
	name := ""
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if fd, ok := n.(*ast.FuncDecl); ok {
			if fd.Pos() <= pos && pos < fd.End() {
				name = fd.Name.Name
			}
		}
		return true
	})
	return name
}
