package lint

import (
	"go/ast"
	"go/token"
)

// InstrCleanPackages lists the packages whose loops are the diffusion
// hot path: the per-push/per-step bodies that the PR 5 engine keeps
// zero-alloc and bit-deterministic. Telemetry for these loops is plain
// integer counters (kernel.Stats) observed at the serving boundary;
// the loops themselves must stay instrumentation-free. Subpackages
// inherit the contract.
var InstrCleanPackages = []string{
	"repro/internal/kernel",
}

// InstrClean enforces the instrumentation-free hot loop contract of
// the diffusion kernels.
var InstrClean = &Analyzer{
	Name: "instrclean",
	Doc: `forbid instrumentation inside diffusion loops

The kernel package answers queries by running tight push loops
millions of times; their work telemetry is plain int counters
accumulated in kernel.Stats and observed once, at the serving
boundary, after the response is written. Two kinds of instrumentation
silently break the engine's contracts when they creep into a loop
body:

  - time.Now / time.Since: a wall-clock read per push adds a syscall
    to the hot path and tempts time-dependent logic into code that
    must be bit-deterministic;
  - log, log/slog and expvar calls: logging allocates and serializes,
    destroying the zero-alloc steady state, and a per-push log line is
    never what an operator wants anyway.

Unlike the determinism analyzer, method calls are not exempt: a
captured *slog.Logger in a loop is exactly the bug this check exists
to catch. Count in plain ints inside the loop; measure and log where
the loop's caller already does.`,
	Run: runInstrClean,
}

func runInstrClean(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), InstrCleanPackages) {
		return nil
	}
	seen := map[token.Pos]bool{} // nested loops: report each call once
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			checkInstrLoop(pass, body, seen)
			return true
		})
	}
	return nil
}

// checkInstrLoop flags instrumentation calls anywhere under a loop
// body. Unlike walkScope it DOES descend into nested function
// literals: a closure built per iteration runs (or captures state) in
// the hot path all the same.
func checkInstrLoop(pass *Pass, body ast.Node, seen map[token.Pos]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || seen[call.Pos()] {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" {
				seen[call.Pos()] = true
				pass.Reportf(call.Pos(),
					"time.%s inside a diffusion loop: wall-clock reads do not belong in the hot path — accumulate plain counters (kernel.Stats) and measure at the serving boundary",
					fn.Name())
			}
		case "log", "log/slog", "expvar":
			seen[call.Pos()] = true
			pass.Reportf(call.Pos(),
				"%s.%s call inside a diffusion loop: logging and counters allocate and serialize in the zero-alloc hot path — record plain ints in the loop and emit telemetry after it",
				fn.Pkg().Path(), fn.Name())
		}
		return true
	})
}
