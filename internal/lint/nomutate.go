package lint

import (
	"go/ast"
	"go/types"
)

// gstorePath and graphPath are the storage packages whose accessor
// aliasing the nomutate analyzer guards. Both are excluded from the
// check itself: they own the arrays.
const (
	gstorePath = "repro/internal/gstore"
	graphPath  = "repro/internal/graph"
)

// NoMutate enforces the read-only contract of the storage accessors
// (PR 8): every slice reachable through a gstore backend or a heap
// graph aliases the graph's internal storage, and for the mmap backend
// it aliases a PROT_READ mapping where a write is a SIGSEGV at some
// arbitrary later query, not a test failure here and now.
var NoMutate = &Analyzer{
	Name: "nomutate",
	Doc: `flag writes through storage-accessor results outside internal/gstore

gstore.Compact.Raw*, gstore.Heap.RawCSR and
graph.Graph.CSR/Degrees/Neighbors return views of the graph's single
backing arrays — immutable by contract
(docs/storage.md), and physically unwritable when the graph is served
by the mmap backend. A write through any of them corrupts the graph
for every concurrent holder at best and segfaults the daemon at worst.
Flagged: element assignment (including op= and ++/--) through an
accessor result or anything sliced from one, copy() into such a slice,
and append() to one (which writes the backing array when capacity
allows). Reading, re-slicing, and copying out are all fine; to modify,
copy first: append([]T(nil), s...).`,
	Run: runNoMutate,
}

func runNoMutate(pass *Pass) error {
	if inScope(pass.Pkg.Path(), []string{gstorePath, graphPath}) {
		return nil
	}
	for _, f := range pass.Files {
		for _, scope := range funcScopes(f) {
			checkNoMutateScope(pass, scope)
		}
	}
	return nil
}

// isStorageAccessorCall reports whether call returns slices aliasing
// graph storage, and under which name to report it.
func isStorageAccessorCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	for _, m := range []string{"RawRowPtr", "RawAdj", "RawWeights32", "RawWeights64", "RawDegrees"} {
		if isFunc(fn, gstorePath, "Compact", m) {
			return "Compact." + m, true
		}
	}
	if isFunc(fn, gstorePath, "Heap", "RawCSR") {
		return "Heap.RawCSR", true
	}
	for _, m := range []string{"CSR", "Degrees", "Neighbors"} {
		if isFunc(fn, graphPath, "Graph", m) {
			return "Graph." + m, true
		}
	}
	return "", false
}

func checkNoMutateScope(pass *Pass, scope funcScope) {
	info := pass.TypesInfo
	// tainted maps variables known to alias graph storage to the
	// accessor that produced them. Taint propagates through plain
	// assignment and re-slicing; the loop runs to fixpoint so chains
	// like `a := g.CSR-result; b := a[lo:hi]` taint in any order.
	tainted := make(map[types.Object]string)

	// accessorExpr reports whether e evaluates to storage-aliasing
	// slice(s): an accessor call, a tainted variable, or a re-slice of
	// either.
	var accessorExpr func(e ast.Expr) (string, bool)
	accessorExpr = func(e ast.Expr) (string, bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			return isStorageAccessorCall(info, e)
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				if name, ok := tainted[obj]; ok {
					return name, true
				}
			}
		case *ast.SliceExpr:
			return accessorExpr(e.X)
		}
		return "", false
	}

	taintIdent := func(e ast.Expr, name string) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return false
		}
		if _, seen := tainted[obj]; !seen {
			tainted[obj] = name
			return true
		}
		return false
	}

	for changed := true; changed; {
		changed = false
		walkScope(scope.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					// Multi-value binding (CSR, Neighbors): every result
					// aliases storage.
					if name, ok := accessorExpr(n.Rhs[0]); ok {
						for _, l := range n.Lhs {
							if taintIdent(l, name) {
								changed = true
							}
						}
					}
					return true
				}
				for i, r := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					if name, ok := accessorExpr(r); ok && taintIdent(n.Lhs[i], name) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(n.Values) == 1 && len(n.Names) > 1 {
					if name, ok := accessorExpr(n.Values[0]); ok {
						for _, id := range n.Names {
							if taintIdent(id, name) {
								changed = true
							}
						}
					}
					return true
				}
				for i, v := range n.Values {
					if i >= len(n.Names) {
						break
					}
					if name, ok := accessorExpr(v); ok && taintIdent(n.Names[i], name) {
						changed = true
					}
				}
			}
			return true
		})
	}

	report := func(pos ast.Node, verb, name string) {
		pass.Reportf(pos.Pos(), "%s %s result: accessor slices alias graph storage and are read-only (a write through the mmap backend is a segfault); copy first", verb, name)
	}

	walkScope(scope.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if idx, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
					if name, ok := accessorExpr(idx.X); ok {
						report(l, "write through", name)
					}
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if name, ok := accessorExpr(idx.X); ok {
					report(n, "write through", name)
				}
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			b, ok := info.Uses[id].(*types.Builtin)
			if !ok || len(n.Args) == 0 {
				return true
			}
			switch b.Name() {
			case "copy":
				if name, ok := accessorExpr(n.Args[0]); ok {
					report(n, "copy into", name)
				}
			case "append":
				if name, ok := accessorExpr(n.Args[0]); ok {
					report(n, "append to", name)
				}
			}
		}
		return true
	})
}
