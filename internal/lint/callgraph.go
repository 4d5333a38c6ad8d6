package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Call-graph construction for the laneowner analyzer. The graph is
// intra-package and conservative in the direction the analyzer needs: an
// edge exists for every static call AND for every bare reference to a package
// function (a function stored or passed as a value may be called later, so
// its body must satisfy the same discipline as its referents). Dynamic calls
// through interfaces or function-typed values have no edge — the analyzer
// compensates by flagging such calls directly when their receiver or callee
// is rooted in shared state.
//
// Function literals are folded into their enclosing declaration: a call made
// inside a closure is an edge from the function that created the closure.
// That over-approximates (the closure may never run) in exactly the safe
// direction for reachability-based checks.

// callGraph is the per-package static call graph.
type callGraph struct {
	pkg *Package

	// decls maps each package-level function or method object to its
	// declaration.
	decls map[*types.Func]*ast.FuncDecl

	// callees lists, per declared function, every package-declared function
	// it references (called or taken as a value).
	callees map[*types.Func][]*types.Func

	// goRootFuncs are package functions launched directly by a go statement
	// anywhere in the package.
	goRootFuncs []*types.Func

	// goRootLits are `go func(){...}()` literals: goroutine bodies with no
	// named declaration. enclosing maps each to the declaration containing
	// it, for attribution in diagnostics.
	goRootLits []*ast.FuncLit
}

// buildCallGraph constructs the package's call graph.
func buildCallGraph(pkg *Package) *callGraph {
	g := &callGraph{
		pkg:     pkg,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		callees: make(map[*types.Func][]*types.Func),
	}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[obj] = fd
		}
	}
	for obj, fd := range g.decls {
		g.collect(obj, fd.Body)
	}
	return g
}

// collect records every package-function reference inside body as a callee
// of from, and every go statement's target as a goroutine root.
func (g *callGraph) collect(from *types.Func, body ast.Node) {
	seen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				g.goRootLits = append(g.goRootLits, lit)
			} else if callee := g.resolve(n.Call.Fun); callee != nil {
				g.goRootFuncs = append(g.goRootFuncs, callee)
			}
		case *ast.Ident:
			if callee := g.resolve(n); callee != nil && !seen[callee] {
				seen[callee] = true
				g.callees[from] = append(g.callees[from], callee)
			}
		case *ast.SelectorExpr:
			if callee := g.resolve(n); callee != nil && !seen[callee] {
				seen[callee] = true
				g.callees[from] = append(g.callees[from], callee)
			}
			// Descend: the selector base may itself reference functions.
		}
		return true
	})
}

// resolve maps an expression used in call or value position to a function
// declared in this package, or nil.
func (g *callGraph) resolve(e ast.Expr) *types.Func {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, ok := g.pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if _, declared := g.decls[fn]; !declared {
		return nil
	}
	return fn
}

// reachable returns the set of declared functions reachable from the roots
// (inclusive) by following callee edges.
func (g *callGraph) reachable(roots []*types.Func) map[*types.Func]bool {
	set := make(map[*types.Func]bool)
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if fn == nil || set[fn] {
			return
		}
		set[fn] = true
		for _, c := range g.callees[fn] {
			visit(c)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return set
}

// goRoots returns the functions that form goroutine entry points: targets of
// go statements plus every package function referenced from a `go func(){}`
// literal body.
func (g *callGraph) goRoots() []*types.Func {
	roots := append([]*types.Func(nil), g.goRootFuncs...)
	for _, lit := range g.goRootLits {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn := g.resolve(id); fn != nil {
					roots = append(roots, fn)
				}
			}
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if fn := g.resolve(sel); fn != nil {
					roots = append(roots, fn)
				}
			}
			return true
		})
	}
	return roots
}

// docRoots returns the functions whose doc comment carries a line starting
// with marker: the way laneowner learns of worker entry points no go
// statement reaches.
func (g *callGraph) docRoots(marker string) []*types.Func {
	var roots []*types.Func
	for fn, fd := range g.decls {
		if fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			if strings.HasPrefix(c.Text, marker) {
				roots = append(roots, fn)
				break
			}
		}
	}
	return roots
}
