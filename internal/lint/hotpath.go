package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath is the annotation-driven allocation linter guarding the cycle
// kernel's zero-alloc steady state. A function whose doc comment carries a
// `//noclint:hotpath <why>` line is a root; the analyzer walks the
// intra-package call graph from the roots and flags alloc-prone constructs
// anywhere in the reachable set:
//
//   - slice/map composite literals and &T{...} (heap escapes)
//   - append (growth reallocates; amortized [:0] reuse sites carry
//     justified directives)
//   - make, new, and conversions between string and byte/rune slices
//   - conversions to interface types (boxing)
//   - fmt package calls (interface boxing plus formatting buffers)
//   - closures that capture enclosing variables
//
// panic(...) argument subtrees are exempt: a panic is the cold path by
// definition, and the repository's panic convention (paniclint) wants
// descriptive, often formatted, messages there.
//
// Known false-negative gaps, documented in DESIGN.md §12: the graph is
// intra-package (a callee in another package is not walked — hot foreign
// code such as the telemetry probes is annotated in its own package), calls
// through interfaces or function values are not followed, and stack-vs-heap
// escape of plain struct literals is not modelled (value literals are
// assumed to stay on the stack, which matches the gc compiler for the
// kernel's patterns but is not guaranteed).
const hotpathName = "hotpath"

// hotpathMarker is the doc-comment prefix that roots a function. The marker
// doubles as a (justified) noclint directive, so the framework's
// reason-required rule applies to annotations too.
const hotpathMarker = "//noclint:hotpath "

var Hotpath = &Analyzer{
	Name:     hotpathName,
	Doc:      "flag alloc-prone constructs reachable from //noclint:hotpath-annotated roots",
	Severity: SeverityWarning,
	Run:      runHotpath,
}

func runHotpath(ctx *Context) []Finding {
	pkg := ctx.Pkg
	g := buildCallGraph(pkg)
	roots := g.docRoots(strings.TrimSpace(hotpathMarker))
	if len(roots) == 0 {
		return nil
	}
	p := &hotpathPass{pkg: pkg}
	for fn := range g.reachable(roots) {
		fd := g.decls[fn]
		p.checkFunc(fn.Name(), fd)
	}
	return p.out
}

type hotpathPass struct {
	pkg *Package
	fn  string
	out []Finding
}

func (p *hotpathPass) report(n ast.Node, format string, args ...any) {
	p.out = append(p.out, Finding{
		Analyzer: hotpathName,
		Pos:      p.pkg.Fset.Position(n.Pos()),
		Message:  fmt.Sprintf(format, args...) + fmt.Sprintf(" (in %s, reachable from a //noclint:hotpath root)", p.fn),
	})
}

func (p *hotpathPass) checkFunc(name string, fd *ast.FuncDecl) {
	p.fn = name
	info := p.pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if p.isBuiltin(n.Fun, "panic") {
				return false // cold path: don't descend into the message
			}
			p.checkCall(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					p.report(n, "&-composite literal escapes to the heap")
					return false
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					p.report(n, "slice literal allocates its backing array")
				case *types.Map:
					p.report(n, "map literal allocates")
				}
			}
		case *ast.FuncLit:
			if p.capturesOuter(n, fd) {
				p.report(n, "closure captures enclosing variables and allocates")
			}
			return false // don't re-flag the closure body against this root
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						p.report(n, "string concatenation allocates")
					}
				}
			}
		}
		return true
	})
}

func (p *hotpathPass) checkCall(call *ast.CallExpr) {
	info := p.pkg.Info
	// Conversions: string <-> byte/rune slices copy; conversions to an
	// interface type box the operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		dst := tv.Type
		src := info.TypeOf(call.Args[0])
		if src == nil {
			return
		}
		switch {
		case types.IsInterface(dst.Underlying()) && !types.IsInterface(src.Underlying()):
			p.report(call, "conversion to interface type %s boxes the value", dst)
		case isStringSliceConv(dst, src):
			p.report(call, "conversion between string and byte/rune slice copies")
		}
		return
	}
	switch {
	case p.isBuiltin(call.Fun, "append"):
		p.report(call, "append may grow the backing array")
	case p.isBuiltin(call.Fun, "make"):
		p.report(call, "make allocates")
	case p.isBuiltin(call.Fun, "new"):
		p.report(call, "new allocates")
	default:
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
				p.report(call, "fmt.%s formats through interfaces and allocates", obj.Name())
			}
		}
	}
}

// isBuiltin reports whether e names the given predeclared function.
func (p *hotpathPass) isBuiltin(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// capturesOuter reports whether the literal's body references a variable
// declared in the enclosing function outside the literal itself.
func (p *hotpathPass) capturesOuter(lit *ast.FuncLit, outer *ast.FuncDecl) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.pkg.Info.Uses[id].(*types.Var)
		if ok && !v.IsField() && v.Pos() >= outer.Pos() && v.Pos() < lit.Pos() {
			captured = true
		}
		return !captured
	})
	return captured
}

// isStringSliceConv reports a conversion between string and []byte/[]rune in
// either direction.
func isStringSliceConv(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isString(src) && isByteOrRuneSlice(dst))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}
