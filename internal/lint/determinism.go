package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterministicPackages lists the packages whose outputs must be
// bit-identical run to run and across worker counts (the contract
// locked by the PR 5 parity tests and the PR 1 byte-identical NCP
// profiles). Subpackages inherit the contract.
var DeterministicPackages = []string{
	"repro/internal/kernel",
	"repro/internal/local",
	"repro/internal/ncp",
	"repro/internal/partition",
}

// Determinism enforces the bit-stability contract of the diffusion
// packages: no map iteration order and no wall clock may reach float
// accumulation.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: `flag nondeterminism sources in the diffusion packages

The kernel/local/ncp/partition packages promise bit-identical
results for a given seed at any worker count (PR 1, PR 5). Three
things silently break that promise:

  - ranging over a map while accumulating floats: iteration order is
    randomized per run, and float addition is not associative, so the
    accumulated bits change run to run;
  - the global math/rand source: unseeded, process-shared, and
    drained by unrelated callers;
  - time.Now: wall-clock values must never feed computation.

Collecting map keys into a slice and sorting before any arithmetic is
the sanctioned pattern and is not flagged.`,
	Run: runDeterminism,
}

// globalRandConstructors are the math/rand package-level functions
// that create explicitly seeded generators rather than consuming the
// global source.
var globalRandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), DeterministicPackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.CallExpr:
				checkDeterminismCall(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags map iteration whose body accumulates floats.
func checkMapRange(pass *Pass, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if acc := findFloatAccumulation(pass.TypesInfo, rs.Body); acc != nil {
		pass.Reportf(rs.For,
			"map iteration order reaches float accumulation at line %d; float addition is not associative, so results change run to run — collect keys, sort, then accumulate",
			pass.Fset.Position(acc.Pos()).Line)
	}
}

// findFloatAccumulation returns the first statement in body (not
// descending into nested function literals) that accumulates into a
// float: a compound assignment (+=, -=, *=, /=) on a float lvalue, or
// a plain assignment x = x <op> e whose right side reuses the lvalue.
func findFloatAccumulation(info *types.Info, body ast.Node) (found ast.Node) {
	walkScope(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if tv, ok := info.Types[as.Lhs[0]]; ok && isFloat(tv.Type) {
				found = as
			}
		case token.ASSIGN:
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				tv, ok := info.Types[lhs]
				if !ok || !isFloat(tv.Type) {
					continue
				}
				if bin, ok := ast.Unparen(as.Rhs[i]).(*ast.BinaryExpr); ok && binaryReuses(info, bin, lhs) {
					found = as
					break
				}
			}
		}
		return found == nil
	})
	return found
}

// binaryReuses reports whether the binary expression tree mentions an
// operand that resolves to the same object chain as lvalue (the
// `s = s + x` accumulation shape).
func binaryReuses(info *types.Info, bin *ast.BinaryExpr, lvalue ast.Expr) bool {
	target := rootObject(info, lvalue)
	if target == nil {
		return false
	}
	var walk func(e ast.Expr) bool
	walk = func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if b, ok := e.(*ast.BinaryExpr); ok {
			return walk(b.X) || walk(b.Y)
		}
		return rootObject(info, e) == target
	}
	return walk(bin.X) || walk(bin.Y)
}

// rootObject resolves the base identifier object of a (possibly
// indexed or selected) lvalue expression: s, s[i], s.f all root at s.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checkDeterminismCall flags time.Now and global math/rand draws.
func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || receiverTypeName(fn) != "" {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(),
				"time.Now in deterministic package %s: wall-clock values must not reach computation — measure at the caller or inject a clock",
				pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		if !globalRandConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the unseeded process-global source; derive a *rand.Rand from the task seed (par.TaskSeed) instead",
				fn.Name())
		}
	}
}
