package lint

import (
	"go/ast"
	"go/types"
)

// CtxLoopPackages are the packages on the service-reachable execution
// path: the handlers and job executors in internal/service, and the
// algorithm packages their Ctx variants fan into. Within them, a
// function that accepts a context has promised its caller
// cancellation; an unbounded loop that never consults the context
// breaks that promise (queries with ?timeout_ms= and cancelled jobs
// would spin forever).
var CtxLoopPackages = []string{
	"repro/internal/service",
	"repro/internal/kernel",
	"repro/internal/ncp",
	"repro/internal/partition",
	"repro/internal/par",
}

// CtxLoop enforces context responsiveness of unbounded loops in
// service-reachable exec paths (the PR 2 cancellation plumbing).
var CtxLoop = &Analyzer{
	Name: "ctxloop",
	Doc: `flag unbounded loops that never consult their context

A function that takes a context.Context advertises cancellation; a
conditionless for loop inside it that never references the context
(no ctx.Err()/ctx.Done() check, no call forwarding ctx) cannot be
interrupted by request deadlines or job cancellation. Check
ctx.Err() at the top of the loop, or select on ctx.Done(). Bounded
loops (for i := 0; i < n; ...) and range loops are not flagged: their
trip counts are the algorithm's own termination argument.`,
	Run: runCtxLoop,
}

func runCtxLoop(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), CtxLoopPackages) {
		return nil
	}
	for _, f := range pass.Files {
		for _, scope := range funcScopes(f) {
			ctxObj := contextParam(pass.TypesInfo, scope)
			if ctxObj == nil || scope.body == nil {
				continue
			}
			checkCtxScope(pass, scope, ctxObj)
		}
	}
	return nil
}

// contextParam returns the object of the first context.Context
// parameter of the scope's signature, or nil.
func contextParam(info *types.Info, scope funcScope) types.Object {
	if scope.typ == nil || scope.typ.Params == nil {
		return nil
	}
	for _, field := range scope.typ.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	return o.Name() == "Context" && o.Pkg() != nil && o.Pkg().Path() == "context"
}

// checkCtxScope flags conditionless for loops in the scope body that
// never reference ctxObj. Nested function literals are descended into
// unless they declare their own context parameter (then they are
// checked independently against that parameter).
func checkCtxScope(pass *Pass, scope funcScope, ctxObj types.Object) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m != n {
					if contextParam(pass.TypesInfo, funcScope{lit: m, typ: m.Type, body: m.Body}) == nil {
						walk(m.Body)
					}
					return false
				}
			case *ast.ForStmt:
				if m.Cond == nil && !usesObject(pass.TypesInfo, m.Body, ctxObj) {
					pass.Reportf(m.For,
						"unbounded for loop never consults %s; request deadlines and job cancellation cannot reach it — check %s.Err() each iteration or select on %s.Done()",
						ctxObj.Name(), ctxObj.Name(), ctxObj.Name())
				}
			}
			return true
		})
	}
	walk(scope.body)
}
