// Package lint is graphlint: a suite of static analyzers that
// mechanically enforce the repo's cross-package invariants — the
// determinism contract of the diffusion engine, the Get/Put
// discipline of pooled kernel workspaces, the temp+rename+fsync
// persistence protocol, the pkg/api error envelope, and context
// responsiveness of service-reachable hot loops. Each invariant was
// established by an earlier PR and is documented in docs/lint.md;
// until now every one of them was enforced only by convention and
// after-the-fact parity tests.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built purely on the standard
// library: packages are located with `go list -export`, parsed with
// go/parser, and typechecked with go/types against compiler export
// data, so the suite needs no module dependencies and runs offline.
// If the x/tools module ever lands in the build environment, each
// Analyzer here converts to an analysis.Analyzer by wrapping Run.
//
// Suppression: a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>] reason
//
// disables the named analyzers (or "all") on the comment's own line
// and the line directly below it. The reason is mandatory; a bare
// ignore without justification does not parse and suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. The shape intentionally
// matches golang.org/x/tools/go/analysis.Analyzer so the suite can be
// ported wholesale if that dependency becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant, which PR
	// established it, and what the fix looks like.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned inside a loaded package.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one typechecked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full graphlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		InstrClean,
		WSPool,
		AtomicWrite,
		APIErr,
		CtxLoop,
		NoMutate,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies each analyzer to pkg, filters diagnostics
// through the //lint:ignore suppression comments found in the
// package's files, and returns the survivors sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
		out = append(out, pass.diags...)
	}
	out = filterIgnored(pkg, out)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
