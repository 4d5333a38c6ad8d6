package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Publish guards the hand-off contract of the observability exposition
// server (internal/obs.Server): a []byte passed to a Set* publisher method
// is retained by the server and read concurrently by HTTP handlers, so the
// caller must treat it as frozen. Two rules:
//
//   - Caller side: after an identifier is passed to a Server.Set* method
//     taking []byte, any later write into it in the same function — element
//     stores, appends (which mutate the retained backing array while
//     capacity lasts), or writes after re-slicing like buf = buf[:0] — is
//     flagged. Rebinding the identifier to an unrelated value ends
//     tracking: a fresh buffer is exactly the sanctioned pattern.
//   - Server side: inside the obs package, the snapshot fields themselves
//     (Server's, and the one buffer of the Snapshot they are made of) may
//     be assigned only in Set*-named methods, so no maintenance path can
//     swap a snapshot without going through the publishing contract.
//
// The caller-side scan is linear over each function body (statement source
// order, branches merged conservatively), which matches how publishers are
// actually written — render, publish, reuse — and keeps the analyzer
// dependency-free.
const publishName = "publish"

var Publish = &Analyzer{
	Name: publishName,
	Doc:  "forbid mutating a buffer after publishing it to the obs exposition server",
	Run:  runPublish,
}

// snapshotFields are the Server and Snapshot fields holding published
// bytes; they are immutable outside the Set* publishers.
var snapshotFields = map[string]bool{
	"metrics":  true,
	"state":    true,
	"progress": true,
	"b":        true,
}

func runPublish(ctx *Context) []Finding {
	p := &publishPass{pkg: ctx.Pkg, inObs: strings.HasSuffix(ctx.Pkg.Path, "/internal/obs")}
	for _, file := range ctx.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkFunc(fd)
		}
	}
	return p.out
}

type publishPass struct {
	pkg   *Package
	inObs bool
	fn    string

	// published maps buffer variables to the name of the Set* method they
	// were handed to, from the hand-off point onward.
	published map[*types.Var]string
	out       []Finding
}

func (p *publishPass) report(n ast.Node, format string, args ...any) {
	p.out = append(p.out, Finding{
		Analyzer: publishName,
		Pos:      p.pkg.Fset.Position(n.Pos()),
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *publishPass) checkFunc(fd *ast.FuncDecl) {
	p.fn = fd.Name.Name
	p.published = make(map[*types.Var]string)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if method, arg := p.sinkCall(n); arg != nil {
				p.published[arg] = method
			}
		case *ast.AssignStmt:
			p.checkAssign(n)
		case *ast.IncDecStmt:
			if v := p.writtenBuffer(n.X); v != nil {
				p.report(n, "write into %s after it was published via %s: the exposition server retains the slice and serves it concurrently", v.Name(), p.published[v])
			}
		}
		return true
	})
}

// checkAssign handles both analyzer rules: stores into published buffers and
// (inside the obs package) snapshot-field stores outside Set* methods.
// Rebinding a published identifier keeps tracking when the new value shares
// the old backing array (sub-slices, append) and ends it otherwise.
func (p *publishPass) checkAssign(as *ast.AssignStmt) {
	paired := len(as.Lhs) == len(as.Rhs)
	for i, lhs := range as.Lhs {
		if p.inObs {
			p.checkSnapshotStore(lhs)
		}
		if id, ok := lhs.(*ast.Ident); ok {
			v := p.varOf(id)
			if v == nil {
				continue
			}
			if _, tracked := p.published[v]; !tracked || !paired {
				continue
			}
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok && isAppendCall(p.pkg.Info, call) {
				// An append into the published buffer mutates the retained
				// backing array while capacity lasts; appending unrelated
				// storage rebinds the name and ends tracking.
				if len(call.Args) > 0 {
					if r := sliceRoot(call.Args[0]); r != nil && p.varOf(r) == v {
						p.report(as, "append to %s after it was published via %s mutates the retained backing array while capacity lasts", v.Name(), p.published[v])
						continue
					}
				}
				delete(p.published, v)
				continue
			}
			if root := sliceRoot(as.Rhs[i]); root != nil && p.varOf(root) == v {
				continue // same backing array: buf = buf[:0] stays tracked
			}
			delete(p.published, v) // fresh buffer: the sanctioned pattern
			continue
		}
		if v := p.writtenBuffer(lhs); v != nil {
			p.report(lhs, "write into %s after it was published via %s: the exposition server retains the slice and serves it concurrently", v.Name(), p.published[v])
		}
	}
}

// checkSnapshotStore flags assignments to Server and Snapshot snapshot
// fields outside Set*-named methods.
func (p *publishPass) checkSnapshotStore(lhs ast.Expr) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok || !snapshotFields[sel.Sel.Name] {
		return
	}
	s := p.pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || (named.Obj().Name() != "Server" && named.Obj().Name() != "Snapshot") {
		return
	}
	if strings.HasPrefix(p.fn, "Set") {
		return
	}
	p.report(lhs, "snapshot field %s may only be assigned in Set* publisher methods; other paths bypass the immutable-snapshot contract", types.ExprString(lhs))
}

// sinkCall recognizes a call to a Server.Set* publisher taking []byte and
// returns the method name and the argument variable when the argument is a
// plain identifier (other shapes — fresh temporaries, call results — cannot
// be mutated afterwards and need no tracking).
func (p *publishPass) sinkCall(call *ast.CallExpr) (string, *types.Var) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Set") {
		return "", nil
	}
	s := p.pkg.Info.Selections[sel]
	if s == nil {
		return "", nil
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "/internal/obs") {
		return "", nil
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Server" {
		return "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 || !isByteSlice(sig.Params().At(0).Type()) {
		return "", nil
	}
	if len(call.Args) == 0 {
		return "", nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return "", nil
	}
	return fn.Name(), p.varOf(id)
}

// writtenBuffer resolves an element-store target (buf[i], buf[i:j] bases,
// parenthesized forms) to a tracked published buffer, or nil.
func (p *publishPass) writtenBuffer(e ast.Expr) *types.Var {
	root := sliceRoot(e)
	if root == nil {
		return nil
	}
	v := p.varOf(root)
	if v == nil {
		return nil
	}
	if _, ok := p.published[v]; !ok {
		return nil
	}
	return v
}

// sliceRoot strips indexing, slicing, and parens down to the base
// identifier, or nil when the expression is not rooted in one.
func sliceRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isAppendCall reports whether call invokes the append builtin.
func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

func (p *publishPass) varOf(id *ast.Ident) *types.Var {
	if v, ok := p.pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := p.pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
