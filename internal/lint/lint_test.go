package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Fixture import paths. Scoped analyzers decide applicability from
// the package path, so positive fixtures are typechecked under paths
// inside the guarded packages and out-of-scope fixtures under paths
// outside them. The paths do not need to exist on disk; fixtures are
// typechecked directly against the repo's real dependencies.
const (
	inDeterministic = "repro/internal/kernel/lintfixture"
	inPersist       = "repro/internal/persist/lintfixture"
	inService       = "repro/internal/service/lintfixture"
	outOfScope      = "repro/cmd/lintfixture"
	inGraph         = "repro/internal/graph/lintfixture"
)

func TestDeterminismPositive(t *testing.T) {
	linttest.Run(t, lint.Determinism, "testdata/determinism/pos", inDeterministic)
}

func TestDeterminismNegative(t *testing.T) {
	linttest.Run(t, lint.Determinism, "testdata/determinism/neg", inDeterministic)
}

func TestDeterminismOutOfScope(t *testing.T) {
	linttest.Run(t, lint.Determinism, "testdata/determinism/outofscope", outOfScope)
}

func TestInstrCleanPositive(t *testing.T) {
	linttest.Run(t, lint.InstrClean, "testdata/instrclean/pos", inDeterministic)
}

func TestInstrCleanNegative(t *testing.T) {
	linttest.Run(t, lint.InstrClean, "testdata/instrclean/neg", inDeterministic)
}

func TestInstrCleanOutOfScope(t *testing.T) {
	linttest.Run(t, lint.InstrClean, "testdata/instrclean/outofscope", outOfScope)
}

func TestWSPoolPositive(t *testing.T) {
	linttest.Run(t, lint.WSPool, "testdata/wspool/pos", inDeterministic)
}

func TestWSPoolNegative(t *testing.T) {
	linttest.Run(t, lint.WSPool, "testdata/wspool/neg", inDeterministic)
}

func TestAtomicWritePositive(t *testing.T) {
	linttest.Run(t, lint.AtomicWrite, "testdata/atomicwrite/pos", inPersist)
}

func TestAtomicWriteNegative(t *testing.T) {
	linttest.Run(t, lint.AtomicWrite, "testdata/atomicwrite/neg", inPersist)
}

func TestAtomicWriteOutOfScope(t *testing.T) {
	linttest.Run(t, lint.AtomicWrite, "testdata/atomicwrite/outofscope", outOfScope)
}

func TestAPIErrPositive(t *testing.T) {
	linttest.Run(t, lint.APIErr, "testdata/apierr/pos", inService)
}

func TestAPIErrNegative(t *testing.T) {
	linttest.Run(t, lint.APIErr, "testdata/apierr/neg", inService)
}

func TestCtxLoopPositive(t *testing.T) {
	linttest.Run(t, lint.CtxLoop, "testdata/ctxloop/pos", inService)
}

func TestCtxLoopNegative(t *testing.T) {
	linttest.Run(t, lint.CtxLoop, "testdata/ctxloop/neg", inService)
}

func TestNoMutatePositive(t *testing.T) {
	linttest.Run(t, lint.NoMutate, "testdata/nomutate/pos", inDeterministic)
}

func TestNoMutateNegative(t *testing.T) {
	linttest.Run(t, lint.NoMutate, "testdata/nomutate/neg", inDeterministic)
}

// TestNoMutateOutOfScope typechecks the mutating fixture under a path
// inside internal/graph, where the package owns the storage and the
// analyzer must not fire.
func TestNoMutateOutOfScope(t *testing.T) {
	linttest.Run(t, lint.NoMutate, "testdata/nomutate/outofscope", inGraph)
}

// TestIgnoreDirectives runs the whole suite over the suppression
// fixture: justified //lint:ignore comments silence their analyzer,
// misdirected or reason-less ones do not.
func TestIgnoreDirectives(t *testing.T) {
	linttest.RunAll(t, "testdata/ignore", inDeterministic)
}

// TestSuiteSelfClean is the in-repo version of `make lint`: the full
// suite over the full tree (graphlint included) must be finding-free.
// Each invariant violation fixed during the suite's introduction is
// locked in by this test.
func TestSuiteSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree lint run in -short mode")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

// TestByName keeps the -only flag's analyzer registry coherent.
func TestByName(t *testing.T) {
	for _, a := range lint.All() {
		if got := lint.ByName(a.Name); got != a {
			t.Errorf("ByName(%q) = %v, want the registered analyzer", a.Name, got)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName on an unknown name should return nil")
	}
}
