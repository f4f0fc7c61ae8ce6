// Package repro is a Go reproduction of Mahoney, "Approximate Computation
// and Implicit Regularization for Very Large-scale Data Analysis"
// (PODS 2012, arXiv:1203.0786).
//
// The paper's thesis is that approximate computation — truncated
// diffusions, early-stopped iterations, local push procedures, heuristic
// partitioners — implicitly performs statistical regularization. This
// package is the public facade over the implementation: it re-exports the
// graph model and the algorithms of the paper's three case studies so
// that a downstream user needs a single import.
//
//   - Section 3.1: Heat Kernel / PageRank / Lazy Random Walk diffusions,
//     their exact equivalence with regularized SDPs (package regsdp), and
//     the early-stopped Power Method.
//   - Section 3.2: global spectral partitioning (Fiedler + sweep cut)
//     versus flow-based partitioning (multilevel "Metis"-style bisection
//     refined by the Lang–Rao MQI flow procedure), and the network
//     community profile machinery that reproduces Figure 1.
//   - Section 3.3: strongly-local clustering — the Andersen–Chung–Lang
//     push algorithm, Spielman–Teng Nibble, heat-kernel PageRank, and the
//     MOV locally-biased spectral program.
//
// Beyond the library API, cmd/graphd serves these algorithms as a
// long-running HTTP/JSON daemon — synchronous cached queries for the
// strongly-local methods, cancellable async jobs for the global NCP and
// partitioning work — built on the internal/service layer; see the
// README's "Running graphd" section.
//
// The deeper layers remain importable for specialist use under
// repro/internal/...; everything here is stable, documented API.
package repro

import (
	"io"
	"math/rand"

	"repro/internal/diffusion"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/local"
	"repro/internal/ncp"
	"repro/internal/partition"
	"repro/internal/regsdp"
	"repro/internal/spectral"
)

// Graph is an immutable undirected weighted graph in CSR form. Build one
// with NewBuilder or a generator, or load one with ReadEdgeList.
type Graph = graph.Graph

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// ReadEdgeList parses the whitespace edge-list format ("u v [w]" per
// line, '#' comments) produced by Graph.WriteEdgeList and cmd/gengraph.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// Generators (deterministic given the rng; see internal/gen for the full
// catalog).
var (
	// Path, Cycle, Complete, Star, Grid are the classical deterministic
	// families.
	Path     = gen.Path
	Cycle    = gen.Cycle
	Complete = gen.Complete
	Star     = gen.Star
	Grid     = gen.Grid
	// Lollipop and Dumbbell are the "long stringy pieces" families on
	// which spectral partitioning saturates its quadratic Cheeger factor.
	Lollipop = gen.Lollipop
	Dumbbell = gen.Dumbbell
	// RingOfCliques and Caveman have planted community structure.
	RingOfCliques = gen.RingOfCliques
	Caveman       = gen.Caveman
)

// ErdosRenyi returns G(n, p).
func ErdosRenyi(n int, p float64, rng *rand.Rand) (*Graph, error) {
	return gen.ErdosRenyi(n, p, rng)
}

// RandomRegular returns a random d-regular graph — w.h.p. an expander,
// the family on which flow-based partitioning pays its O(log n) factor.
func RandomRegular(n, d int, rng *rand.Rand) (*Graph, error) {
	return gen.RandomRegular(n, d, rng)
}

// ForestFire grows a forest-fire network: power-law degrees, whisker-like
// small communities and an expander core, the synthetic stand-in for the
// paper's AtP-DBLP network.
func ForestFire(n int, fwdProb float64, rng *rand.Rand) (*Graph, error) {
	return gen.ForestFire(gen.ForestFireConfig{N: n, FwdProb: fwdProb, Ambs: 1}, rng)
}

// Kronecker generates a stochastic Kronecker (R-MAT) graph on 2^levels
// nodes with the classic (0.57, 0.19, 0.19, 0.05) initiator — the other
// standard synthetic social-network family.
func Kronecker(levels, edges int, rng *rand.Rand) (*Graph, error) {
	return gen.Kronecker(gen.KroneckerConfig{Levels: levels, Edges: edges}, rng)
}

// FiedlerVector computes the leading nontrivial eigenvector of the
// normalized Laplacian (the solution of the paper's Problem (3)) and its
// eigenvalue λ₂.
func FiedlerVector(g *Graph) (vector []float64, lambda2 float64, err error) {
	res, err := spectral.Fiedler(g, spectral.FiedlerOptions{})
	if err != nil {
		return nil, 0, err
	}
	return res.Vector, res.Lambda2, nil
}

// Diffusions of Section 3.1. Each takes a seed distribution and an
// aggressiveness parameter; run to its limit it forgets the seed, stopped
// early it computes the regularized-SDP optimum (see RegularizedSDP).
var (
	// HeatKernel evolves exp(−t·L)·seed.
	HeatKernel = func(g *Graph, seed []float64, t float64) ([]float64, error) {
		return diffusion.HeatKernel(g, seed, t, diffusion.HeatKernelOptions{})
	}
	// PageRank computes γ(I−(1−γ)M)^{-1}·seed, Eq. (2) of the paper.
	PageRank = func(g *Graph, seed []float64, gamma float64) ([]float64, error) {
		return diffusion.PageRank(g, seed, gamma, diffusion.PageRankOptions{})
	}
	// LazyWalk computes W_α^k·seed with W_α = αI + (1−α)M.
	LazyWalk = diffusion.LazyWalk
	// SeedVector builds the uniform distribution over a seed set.
	SeedVector = diffusion.SeedVector
)

// Regularizer identifies the implicit regularizer G(·) of a diffusion in
// the regularized SDP min Tr(LX) + (1/η)G(X).
type Regularizer = regsdp.Regularizer

// The three regularizers of Section 3.1's equivalence result.
const (
	Entropy = regsdp.Entropy // heat kernel
	LogDet  = regsdp.LogDet  // PageRank
	PNorm   = regsdp.PNorm   // lazy random walk
)

// RegularizedSDP solves min Tr(𝓛X) + (1/η)·G(X) over density matrices
// exactly (dense spectral solve; for verification-scale graphs) and
// returns the optimal spectral weights. See internal/regsdp for the
// operator forms and the diffusion-equivalence checks.
func RegularizedSDP(g *Graph, reg Regularizer, eta, p float64) (*regsdp.Solution, error) {
	spec, err := regsdp.NewSpectrum(g)
	if err != nil {
		return nil, err
	}
	return regsdp.Solve(spec, reg, eta, p)
}

// SweepResult is the outcome of a sweep cut over an embedding vector.
type SweepResult = partition.SweepResult

// SweepCut sorts nodes by the embedding value and returns the best
// conductance prefix — the rounding step of spectral partitioning.
func SweepCut(g *Graph, embedding []float64) (*SweepResult, error) {
	return partition.SweepCut(g, embedding)
}

// SpectralPartition runs global spectral partitioning: Fiedler vector
// plus sweep cut, with the quadratic Cheeger guarantee.
func SpectralPartition(g *Graph) (*partition.SpectralResult, error) {
	return partition.Spectral(g, spectral.FiedlerOptions{})
}

// MetisMQI runs the paper's flow-based partitioning pipeline: a
// multilevel ("Metis"-style) bisection whose smaller side is then
// improved by the Lang–Rao MQI max-flow procedure.
func MetisMQI(g *Graph) (*flow.MQIResult, error) {
	return partition.MetisMQI(g, partition.MultilevelOptions{})
}

// MQI improves a set's conductance with max-flow; the result is a subset
// of the input with conductance no larger.
func MQI(g *Graph, set []int) (*flow.MQIResult, error) { return flow.MQI(g, set) }

// Improve runs the Andersen–Lang flow improvement, which may also grow
// the set (reference [3]).
func Improve(g *Graph, set []int) (*flow.ImproveResult, error) { return flow.Improve(g, set) }

// Conductance φ(S) of a node set, Eq. (6) of the paper.
func Conductance(g *Graph, set []int) float64 { return g.ConductanceOfSet(set) }

// PushResult is the output of the ACL push algorithm: the sparse
// approximate PPR vector, its residual, and the work performed.
type PushResult = local.PushResult

// ApproxPageRank runs the Andersen–Chung–Lang push algorithm with
// teleport α and truncation ε: work O(1/(εα)) independent of graph size.
func ApproxPageRank(g *Graph, seeds []int, alpha, eps float64) (*PushResult, error) {
	return local.ApproxPageRank(gstore.Wrap(g), seeds, alpha, eps)
}

// LocalCluster finds a low-conductance cluster near the seeds via push +
// degree-normalized sweep, the Section 3.3 workhorse.
func LocalCluster(g *Graph, seeds []int, alpha, eps float64) (*SweepResult, error) {
	pr, err := local.ApproxPageRank(gstore.Wrap(g), seeds, alpha, eps)
	if err != nil {
		return nil, err
	}
	return local.SweepCut(gstore.Wrap(g), pr.P)
}

// Nibble runs the Spielman–Teng truncated-random-walk clustering.
func Nibble(g *Graph, seeds []int, eps float64, steps int) (*local.NibbleResult, error) {
	return local.Nibble(gstore.Wrap(g), seeds, eps, steps)
}

// MOV solves the locally-biased spectral program of Mahoney–Orecchia–
// Vishnoi exactly (it touches the whole graph, unlike the push methods).
func MOV(g *Graph, seeds []int, gamma float64) (*local.MOVResult, error) {
	return local.MOV(g, seeds, gamma, 0, 0)
}

// NCPPoint is one (size, minimum conductance) point of a network
// community profile.
type NCPPoint = ncp.Point

// SpectralNCP computes the network community profile of g with the local
// spectral method (the blue series of Figure 1).
func SpectralNCP(g *Graph, rng *rand.Rand) ([]NCPPoint, error) {
	prof, err := ncp.SpectralProfile(g, ncp.SpectralConfig{}, rng)
	if err != nil {
		return nil, err
	}
	return prof.MinEnvelope(), nil
}

// FlowNCP computes the network community profile of g with the flow-based
// method (the red series of Figure 1).
func FlowNCP(g *Graph, rng *rand.Rand) ([]NCPPoint, error) {
	prof, err := ncp.FlowProfile(g, ncp.FlowConfig{}, rng)
	if err != nil {
		return nil, err
	}
	return prof.MinEnvelope(), nil
}
