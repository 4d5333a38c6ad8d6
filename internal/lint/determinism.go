package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
)

// wallClockFuncs are the time-package functions whose results depend on the
// wall clock. Any of them inside a simulation package makes a run's behavior
// or output depend on when it ran rather than on its configuration.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Sleep":     true,
}

// bannedImports are packages whose presence alone breaks reproducibility:
// math/rand draws from a process-global, seed-racy source, unlike the
// explicitly seeded internal/rng streams.
var bannedImports = map[string]string{
	"math/rand":    "use the explicitly seeded internal/rng streams instead of math/rand",
	"math/rand/v2": "use the explicitly seeded internal/rng streams instead of math/rand/v2",
}

// Determinism forbids the classic sources of run-to-run divergence in
// simulation packages: wall-clock reads, the global math/rand generator,
// iteration over Go maps (whose order is deliberately randomized by the
// runtime), and goroutine spawns (whose scheduling order the runtime does
// not fix — concurrency in a simulation package is safe only when all
// cross-goroutine effects are merged in a fixed order). Sites that
// legitimately touch the wall clock or spawn goroutines — progress
// reporting, CLI timing, a worker pool behind a fixed-order merge — are
// exempted via the configuration allowlist or a justified
// //noclint:determinism directive.
const determinismName = "determinism"

var Determinism = &Analyzer{
	Name: determinismName,
	Doc:  "forbid wall-clock reads, math/rand, map iteration and unjustified goroutines in simulation packages",
	Run:  runDeterminism,
}

func runDeterminism(ctx *Context) []Finding {
	var out []Finding
	pkg := ctx.Pkg
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, Finding{
			Analyzer: determinismName,
			Pos:      pkg.Fset.Position(n.Pos()),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := bannedImports[path]; ok {
				report(imp, "import of %s is nondeterministic: %s", path, why)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := timeFuncCall(pkg.Info, n); ok {
					report(n, "time.%s reads the wall clock: simulation behavior and output must depend only on the configuration", name)
				}
			case *ast.RangeStmt:
				if t := pkg.Info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						report(n, "map iteration order is nondeterministic: iterate a sorted or naturally ordered slice instead (type %s)", t)
					}
				}
			case *ast.GoStmt:
				report(n, "goroutine scheduling order is nondeterministic: per-domain parallelism is safe only behind a fixed-order merge of all cross-goroutine effects (justify with //noclint:determinism)")
			}
			return true
		})
	}
	return out
}

// timeFuncCall reports whether call invokes a banned time-package function,
// returning its name. Resolution goes through the type checker, so aliased
// imports and shadowed identifiers are handled correctly.
func timeFuncCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return "", false
	}
	if wallClockFuncs[obj.Name()] {
		return obj.Name(), true
	}
	return "", false
}
