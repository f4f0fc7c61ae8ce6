package lint

import (
	"go/ast"
	"go/types"
)

// kernelPath is the package whose pooled workspaces the wspool
// analyzer guards.
const kernelPath = "repro/internal/kernel"

// WSPool enforces the Acquire/Release discipline of pooled kernel
// workspaces (PR 5): every workspace taken from kernel.Acquire or
// (*kernel.Pool).Get must be returned on all paths, which in practice
// means a deferred kernel.Release / (*kernel.Pool).Put in the same
// function, unless ownership demonstrably leaves the function.
var WSPool = &Analyzer{
	Name: "wspool",
	Doc: `flag pooled kernel workspaces that are not released on all paths

kernel.Pool keeps steady-state diffusion allocation-free; a workspace
that escapes collection silently regresses the pool to one allocation
per query, and an early return between Acquire and a non-deferred
Release leaks on every error path. The contract (docs/kernel.md) is:

    ws := kernel.Acquire(g.N())   // or pool.Get()
    defer kernel.Release(ws)      // or defer pool.Put(ws)

Acquired workspaces that are returned to the caller, stored into a
struct, or sent over a channel transfer ownership and are not
flagged.`,
	Run: runWSPool,
}

func runWSPool(pass *Pass) error {
	for _, f := range pass.Files {
		for _, scope := range funcScopes(f) {
			checkPoolScope(pass, scope)
		}
	}
	return nil
}

// isAcquireCall reports whether call obtains a pooled workspace.
func isAcquireCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	switch {
	case isFunc(fn, kernelPath, "", "Acquire"):
		return "kernel.Acquire", true
	case isFunc(fn, kernelPath, "Pool", "Get"):
		return "Pool.Get", true
	}
	return "", false
}

// isReleaseCall reports whether call returns a workspace to a pool.
func isReleaseCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return isFunc(fn, kernelPath, "", "Release") ||
		isFunc(fn, kernelPath, "Pool", "Put")
}

func checkPoolScope(pass *Pass, scope funcScope) {
	info := pass.TypesInfo
	type acquire struct {
		call *ast.CallExpr
		name string       // "kernel.Acquire" or "Pool.Get"
		obj  types.Object // bound variable, nil if unbound
	}
	var acquires []acquire

	// Pass 1: find acquire calls and how their results are bound.
	// parent links let us distinguish `ws := Acquire()` from a
	// discarded or inline-argument result.
	bindings := make(map[*ast.CallExpr]types.Object)
	escaped := make(map[*ast.CallExpr]bool)
	walkScope(scope.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if _, isAcq := isAcquireCall(info, call); !isAcq {
					continue
				}
				// Single-value binding: lhs index matches rhs index
				// (acquire calls return exactly one value).
				if i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
						if o := info.Defs[id]; o != nil {
							bindings[call] = o
						} else if o := info.Uses[id]; o != nil {
							bindings[call] = o
						}
						continue
					}
					// Assigned into a field/index: ownership leaves
					// this function's control flow.
					escaped[call] = true
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				call, ok := ast.Unparen(v).(*ast.CallExpr)
				if !ok {
					continue
				}
				if _, isAcq := isAcquireCall(info, call); !isAcq {
					continue
				}
				if i < len(n.Names) && n.Names[i].Name != "_" {
					if o := info.Defs[n.Names[i]]; o != nil {
						bindings[call] = o
					}
				}
			}
		case *ast.ReturnStmt:
			// `return kernel.Acquire(n)` transfers ownership.
			for _, res := range n.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
					if _, isAcq := isAcquireCall(info, call); isAcq {
						escaped[call] = true
					}
				}
			}
		}
		return true
	})
	walkScope(scope.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, isAcq := isAcquireCall(info, call); isAcq && !escaped[call] {
			acquires = append(acquires, acquire{call: call, name: name, obj: bindings[call]})
		}
		return true
	})
	if len(acquires) == 0 {
		return
	}

	// Pass 2: find deferred and direct releases, and escapes of the
	// bound objects.
	deferredRelease := make(map[types.Object]bool)
	directRelease := make(map[types.Object]bool)
	escapes := make(map[types.Object]bool)
	recordRelease := func(call *ast.CallExpr, into map[types.Object]bool) {
		for _, arg := range call.Args {
			if o := rootObject(info, arg); o != nil {
				into[o] = true
			}
		}
	}
	walkScope(scope.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if isReleaseCall(info, n.Call) {
				recordRelease(n.Call, deferredRelease)
				return true
			}
			// defer func() { ...Release(ws)... }() counts too; the
			// literal runs exactly when the defer fires.
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok && isReleaseCall(info, c) {
						recordRelease(c, deferredRelease)
					}
					return true
				})
			}
		case *ast.CallExpr:
			if isReleaseCall(info, n) {
				recordRelease(n, directRelease)
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if o := rootObject(info, res); o != nil {
					escapes[o] = true
				}
				// Returning a composite that embeds the workspace
				// also transfers ownership.
				markCompositeEscapes(info, res, escapes)
			}
		case *ast.AssignStmt:
			// ws stored into a field, slice element, or map:
			// ownership is now held by the containing value.
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if _, plain := lhs.(*ast.Ident); plain {
					continue
				}
				if o := rootObject(info, n.Rhs[i]); o != nil {
					escapes[o] = true
				}
			}
			for _, rhs := range n.Rhs {
				markCompositeEscapes(info, rhs, escapes)
			}
		case *ast.SendStmt:
			if o := rootObject(info, n.Value); o != nil {
				escapes[o] = true
			}
		case *ast.CompositeLit:
			markCompositeEscapes(info, n, escapes)
		}
		return true
	})

	for _, acq := range acquires {
		switch {
		case acq.obj == nil:
			pass.Reportf(acq.call.Pos(),
				"result of %s is not bound to a variable, so it can never be released back to the pool", acq.name)
		case deferredRelease[acq.obj] || escapes[acq.obj]:
			// released on all paths, or ownership left this function
		case directRelease[acq.obj]:
			pass.Reportf(acq.call.Pos(),
				"workspace from %s is released but not via defer; an early return or panic between %s and the Release leaks it — use `defer`", acq.name, acq.name)
		default:
			pass.Reportf(acq.call.Pos(),
				"workspace from %s has no matching deferred Release/Put in %s; pair every acquire with `defer kernel.Release(ws)` or `defer pool.Put(ws)`", acq.name, scope.name())
		}
	}
}

// markCompositeEscapes records objects referenced inside composite
// literal elements as escaping (e.g. &holder{ws: ws}).
func markCompositeEscapes(info *types.Info, e ast.Expr, escapes map[types.Object]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if o := rootObject(info, el); o != nil {
				escapes[o] = true
			}
		}
		return true
	})
}
