package lint

import (
	"go/ast"
	"go/types"
)

// AtomicWritePackages are the packages that own durable files and must
// write them via the temp+rename+fsync protocol (PR 4).
// The graph store reaches its data directory only through persist.Dir,
// so that is internal/persist alone.
var AtomicWritePackages = []string{
	"repro/internal/persist",
}

// AtomicWrite enforces the persistence write discipline: durable files
// are produced by writing to an os.CreateTemp file in the destination
// directory, fsyncing, renaming into place, and fsyncing the
// directory (persist.WriteSnapshotFile is the canonical
// implementation). Creating or truncating a durable file in place can
// tear it on crash, which is exactly what the PR 4 corruption tests
// quarantine against.
var AtomicWrite = &Analyzer{
	Name: "atomicwrite",
	Doc: `flag direct file creation that bypasses temp+rename+fsync

In internal/persist, which owns graphd's data directory, os.Create,
os.WriteFile, and os.OpenFile with os.O_TRUNC write into the final
filename directly: a crash mid-write leaves a torn file under the
durable name. Write to an os.CreateTemp sibling, Sync, Close, os.Rename, and
fsync the directory — see persist.WriteSnapshotFile. Append-mode
OpenFile (the WAL pattern: O_CREATE|O_EXCL plus per-record fsync) and
os.CreateTemp itself are the sanctioned primitives and are not
flagged.`,
	Run: runAtomicWrite,
}

func runAtomicWrite(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), AtomicWritePackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || !isFunc(fn, "os", "", fn.Name()) {
				return true
			}
			switch fn.Name() {
			case "Create":
				pass.Reportf(call.Pos(),
					"os.Create writes into the final filename; a crash mid-write tears the durable file — use os.CreateTemp + Sync + os.Rename (see persist.WriteSnapshotFile)")
			case "WriteFile":
				pass.Reportf(call.Pos(),
					"os.WriteFile writes into the final filename with no fsync; use the temp+rename+fsync pattern (see persist.WriteSnapshotFile)")
			case "OpenFile":
				if len(call.Args) >= 2 && flagsIncludeTrunc(pass.TypesInfo, call.Args[1]) {
					pass.Reportf(call.Pos(),
						"os.OpenFile with os.O_TRUNC truncates the durable file in place; a crash before the new bytes land leaves it empty — use temp+rename+fsync")
				}
			}
			return true
		})
	}
	return nil
}

// flagsIncludeTrunc reports whether the flag expression mentions the
// os.O_TRUNC constant. Flags passed through variables are not
// resolved; the analyzer stays on the conservative side.
func flagsIncludeTrunc(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if c, ok := info.Uses[sel.Sel].(*types.Const); ok &&
			c.Name() == "O_TRUNC" && c.Pkg() != nil && c.Pkg().Path() == "os" {
			found = true
		}
		return !found
	})
	return found
}
