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
	"sort"
	"strings"
)

// Loader parses and typechecks packages of one Go module from source using
// only the standard library (go/parser + go/types + the source importer for
// the standard library). It exists so the analysis suite needs no external
// dependencies: module-internal imports are resolved by mapping the import
// path onto the module directory tree and typechecking recursively; standard
// library imports are typechecked from $GOROOT/src.
//
// Test files are excluded: the analyzers guard production simulation code,
// and tests legitimately use wall clocks, maps and panics.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string // absolute directory containing go.mod
	modulePath string // module path declared in go.mod

	std  types.ImporterFrom
	pkgs map[string]*Package // cache by import path
}

// Package is one loaded, typechecked package presented to analyzers.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewLoader builds a loader for the module rooted at dir (the directory
// holding go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:       fset,
		moduleRoot: root,
		modulePath: modPath,
		std:        std,
		pkgs:       make(map[string]*Package),
	}, nil
}

// ModulePath returns the module path declared in go.mod.
func (l *Loader) ModulePath() string { return l.modulePath }

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", path)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.moduleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are loaded
// from source inside the module; everything else is delegated to the
// standard-library source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Load typechecks the module package with the given import path (cached).
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", importPath)
		}
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.modulePath), "/")
	dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
	return l.LoadDirAs(dir, importPath)
}

// LoadDirAs typechecks the package in dir under the given import path. It is
// the entry point fixture tests use to load packages outside the module's
// import graph (e.g. under testdata/, which the go tool ignores).
func (l *Loader) LoadDirAs(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", importPath)
		}
		return p, nil
	}
	l.pkgs[importPath] = nil // cycle guard while loading

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}

	p := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// Expand resolves package patterns relative to the module root into a sorted
// list of import paths. A pattern is either a package directory ("./cmd/foo")
// or a recursive prefix ("./internal/..."). Directories named "testdata" and
// directories starting with "." or "_" are skipped, following the go tool's
// convention.
func (l *Loader) Expand(patterns ...string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) error {
		ok, err := hasGoFiles(dir)
		if err != nil || !ok {
			return err
		}
		rel, err := filepath.Rel(l.moduleRoot, dir)
		if err != nil {
			return err
		}
		ip := l.modulePath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		if !seen[ip] {
			seen[ip] = true
			out = append(out, ip)
		}
		return nil
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		base := filepath.Join(l.moduleRoot, filepath.FromSlash(pat))
		if !recursive {
			if err := add(base); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			n := d.Name()
			if path != base && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return add(path)
		})
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, fmt.Errorf("lint: %w", err)
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}
