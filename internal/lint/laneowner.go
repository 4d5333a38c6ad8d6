package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Laneowner machine-checks the single-writer discipline the parallel cycle
// kernel's determinism argument rests on (see internal/noc/parallel.go): code
// reachable from a worker goroutine may write only lane-owned state. The
// ownership model:
//
//   - A parameter of type *lane is the worker's own shard — everything
//     reached through it is trusted (the analyzer takes "this is my lane" as
//     an axiom; handing a foreign lane to a phase function is outside its
//     power to detect).
//   - The Network fields `routers` and `inj` are arenas partitioned by node
//     ID; access through an index expression is trusted because lanes own
//     contiguous ID ranges (the in-range guard is a runtime property the
//     race-enabled equivalence tests cover).
//   - Every other path rooted at a *Network value is shared state: direct
//     writes, pointer-receiver method calls, interface method calls, and
//     dynamic calls through stored function values are all flagged, because
//     any of them can mutate state two lanes can reach.
//
// Roots are discovered, not configured: every function launched by a go
// statement in the package (and every package function referenced inside a
// `go func(){}` literal) seeds the reachable set, so adding a new worker
// phase automatically extends the checked region. What discovery cannot see
// is code the workers reach through a callback defined in another package —
// Network.Inject, called by the endpoints SetStage's stage ticks on the
// lanes — so a function whose doc comment carries a
// `//noclint:laneowner root: <why>` line is a root too. Genuinely safe
// sites — single-writer slots, serial-only observers — carry justified
// //noclint:laneowner directives.
const laneownerName = "laneowner"

// laneownerRootMarker is the doc-comment prefix that roots a function. It
// parses as a justified noclint directive, so the reason-required rule
// covers it.
const laneownerRootMarker = "//noclint:laneowner root:"

var Laneowner = &Analyzer{
	Name: laneownerName,
	Doc:  "forbid writes to non-lane-owned network state from code reachable inside a parallel worker phase",
	Run:  runLaneowner,
}

// laneOwnedFields are the Network arena fields whose elements are partitioned
// across lanes by node ID; indexed access through them is lane-owned.
var laneOwnedFields = map[string]bool{
	"routers": true,
	"inj":     true,
}

// ownClass classifies what an expression is rooted in.
type ownClass uint8

const (
	classUnknown ownClass = iota // local or unanalyzable — trusted
	classNet                     // shared *Network state — writes flagged
	classLane                    // a *lane shard parameter — trusted
	classOwned                   // through a lane-partitioned arena field — trusted
)

func runLaneowner(ctx *Context) []Finding {
	pkg := ctx.Pkg
	if !strings.HasSuffix(pkg.Path, "/internal/noc") {
		return nil
	}
	scope := pkg.Types.Scope()
	netObj, _ := scope.Lookup("Network").(*types.TypeName)
	laneObj, _ := scope.Lookup("lane").(*types.TypeName)
	if netObj == nil || laneObj == nil {
		return nil
	}

	g := buildCallGraph(pkg)
	roots := append(g.goRoots(), g.docRoots(laneownerRootMarker)...)
	if len(roots) == 0 && len(g.goRootLits) == 0 {
		return nil
	}

	p := &laneownerPass{pkg: pkg, graph: g, netObj: netObj, laneObj: laneObj}
	for fn := range g.reachable(roots) {
		fd := g.decls[fn]
		p.checkFunc(fn.Name(), fd.Recv, fd.Type.Params, fd.Body)
	}
	// Goroutine bodies with no named declaration are checked in place; their
	// captured variables classify by type (a captured *Network is shared).
	for _, lit := range g.goRootLits {
		p.checkFunc("goroutine literal", nil, lit.Type.Params, lit.Body)
	}
	return p.out
}

type laneownerPass struct {
	pkg     *Package
	graph   *callGraph
	netObj  *types.TypeName
	laneObj *types.TypeName

	// env carries the current function's ownership classes: parameters by
	// declared type, locals by alias propagation in source order.
	env map[*types.Var]ownClass
	fn  string
	out []Finding
}

func (p *laneownerPass) report(n ast.Node, format string, args ...any) {
	p.out = append(p.out, Finding{
		Analyzer: laneownerName,
		Pos:      p.pkg.Fset.Position(n.Pos()),
		Message:  fmt.Sprintf(format, args...),
	})
}

// isType reports whether t (possibly behind a pointer) is the named type tn.
func isType(t types.Type, tn *types.TypeName) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == tn
}

// referenceLike reports whether writes through a variable of type t can reach
// the value it was derived from: pointers, slices, maps, channels, functions
// and interfaces propagate ownership; value copies do not.
func referenceLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// checkFunc analyzes one function body with a fresh environment seeded from
// its receiver and parameters.
func (p *laneownerPass) checkFunc(name string, recv, params *ast.FieldList, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	p.fn = name
	p.env = make(map[*types.Var]ownClass)
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				v, ok := p.pkg.Info.Defs[id].(*types.Var)
				if !ok {
					continue
				}
				switch {
				case isType(v.Type(), p.netObj):
					p.env[v] = classNet
				case isType(v.Type(), p.laneObj):
					p.env[v] = classLane
				}
			}
		}
	}
	seed(recv)
	seed(params)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures share the environment: a closure writing through a
			// captured shared pointer is still a worker-phase write.
			return true
		case *ast.AssignStmt:
			p.checkAssign(n)
		case *ast.IncDecStmt:
			if p.classOf(n.X) == classNet {
				p.report(n, "worker-phase write to shared network state %s (in %s, reachable from a goroutine root); route it through a lane shard or defer it to the serial tail", types.ExprString(n.X), p.fn)
			}
		case *ast.CallExpr:
			p.checkCall(n)
		}
		return true
	})
}

// checkAssign flags stores through shared paths and tracks local aliases.
// Assigning to a plain identifier is a rebinding, never a shared write; it
// updates (or kills) the identifier's ownership class instead.
func (p *laneownerPass) checkAssign(as *ast.AssignStmt) {
	paired := len(as.Lhs) == len(as.Rhs)
	for i, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			v := p.varOf(id)
			if v == nil || !referenceLike(v.Type()) {
				continue
			}
			cls := classUnknown
			if paired {
				cls = p.classOf(as.Rhs[i])
			}
			if cls == classUnknown {
				delete(p.env, v)
			} else {
				p.env[v] = cls
			}
			continue
		}
		if p.classOf(lhs) == classNet {
			p.report(lhs, "worker-phase write to shared network state %s (in %s, reachable from a goroutine root); route it through a lane shard or defer it to the serial tail", types.ExprString(lhs), p.fn)
		}
	}
}

// checkCall flags calls that can mutate shared state through a dynamic or
// foreign callee the call graph cannot follow: pointer-receiver methods,
// interface methods, and stored function values rooted at the network.
// In-package methods with a Network receiver are exempt here — the call graph
// walks into their bodies, where every write is classified precisely.
func (p *laneownerPass) checkCall(call *ast.CallExpr) {
	if tv, ok := p.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// A method selection; a func-valued field (n.laneFn(...)) is a dynamic
		// call and falls through to that check below.
		if s := p.pkg.Info.Selections[sel]; s != nil && s.Kind() != types.FieldVal {
			if p.classOf(sel.X) != classNet {
				return
			}
			fn, ok := s.Obj().(*types.Func)
			if !ok {
				return
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return
			}
			if _, inPkg := p.graph.decls[fn]; inPkg && isType(sig.Recv().Type(), p.netObj) {
				return // followed through the call graph
			}
			recvT := sig.Recv().Type()
			switch {
			case types.IsInterface(recvT):
				p.report(call, "worker-phase call to interface method %s on shared network state %s (in %s): dynamic callees cannot be proven lane-safe", fn.Name(), types.ExprString(sel.X), p.fn)
			case isPointer(recvT):
				p.report(call, "worker-phase call to pointer-receiver method %s on shared network state %s (in %s) may mutate non-lane-owned state", fn.Name(), types.ExprString(sel.X), p.fn)
			}
			return
		}
	}
	// Not a method selection: a direct call of a declared function (followed
	// via the call graph), a builtin, or a dynamic call through a function
	// value. Only the last is a hazard when the value is network-rooted.
	if obj := p.funObj(call.Fun); obj != nil {
		return // statically known callee
	}
	if p.classOf(call.Fun) == classNet {
		p.report(call, "worker-phase dynamic call through shared function value %s (in %s): the callee cannot be proven lane-safe", types.ExprString(call.Fun), p.fn)
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.(*types.Pointer)
	return ok
}

// funObj resolves e to a statically known function or builtin, or nil.
func (p *laneownerPass) funObj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	switch obj := p.pkg.Info.Uses[id].(type) {
	case *types.Func:
		return obj
	case *types.Builtin:
		return obj
	}
	return nil
}

// varOf resolves an identifier to its variable object (use or definition).
func (p *laneownerPass) varOf(id *ast.Ident) *types.Var {
	if v, ok := p.pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := p.pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// classOf walks an expression to its root and classifies its ownership.
// Selecting a lane-owned arena field (routers, inj) directly from a Network
// value turns a shared path into an owned one; every other field selection,
// indexing, dereference, or slicing preserves the root's class.
func (p *laneownerPass) classOf(e ast.Expr) ownClass {
	switch e := e.(type) {
	case *ast.Ident:
		v := p.varOf(e)
		if v == nil {
			return classUnknown
		}
		if c, ok := p.env[v]; ok {
			return c
		}
		if isType(v.Type(), p.netObj) {
			return classNet // captured or package-level network value
		}
		return classUnknown
	case *ast.SelectorExpr:
		base := p.classOf(e.X)
		if base == classNet && p.isLaneOwnedField(e) {
			return classOwned
		}
		return base
	case *ast.IndexExpr:
		return p.classOf(e.X)
	case *ast.SliceExpr:
		return p.classOf(e.X)
	case *ast.StarExpr:
		return p.classOf(e.X)
	case *ast.ParenExpr:
		return p.classOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return p.classOf(e.X)
		}
	}
	return classUnknown
}

// isLaneOwnedField reports whether sel selects one of the partitioned arena
// fields directly from the Network struct.
func (p *laneownerPass) isLaneOwnedField(sel *ast.SelectorExpr) bool {
	if !laneOwnedFields[sel.Sel.Name] {
		return false
	}
	s := p.pkg.Info.Selections[sel]
	return s != nil && s.Kind() == types.FieldVal && isType(s.Recv(), p.netObj)
}
