// Package local implements the locally-biased partitioning algorithms of
// §3.3, both the "operational approach" — the Andersen–Chung–Lang push
// algorithm for approximate Personalized PageRank, the Spielman–Teng
// Nibble truncated random walk, and Chung's heat-kernel variant — and the
// "optimization approach", the Mahoney–Orecchia–Vishnoi (MOV)
// locally-biased spectral program.
//
// The operational algorithms touch only the nodes their truncation
// thresholds allow: their work is independent of the size of the graph,
// which is exactly the §3.3 claim that the experiments measure, and the
// truncation-to-zero is the implicit regularizer. They run on the
// indexed sparse workspaces of internal/kernel (dense epoch-stamped
// scratch, allocation-free in the inner loop); this package keeps the
// map-based SparseVec only as a thin conversion type so callers that
// want a self-contained sparse vector still get one.
package local

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/partition"
)

// SparseVec is a sparse nonnegative vector over graph nodes. It is the
// exported, self-contained snapshot form of a kernel workspace plane;
// the engines themselves no longer compute on maps.
type SparseVec map[int]float64

// Support returns the nodes with nonzero value, sorted ascending.
func (v SparseVec) Support() []int {
	out := make([]int, 0, len(v))
	for u := range v {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// FromWorkspaceP snapshots a workspace's output plane as a SparseVec.
func FromWorkspaceP(ws *kernel.Workspace) SparseVec {
	out := make(SparseVec)
	ws.ForEachP(func(u int, x float64) { out[u] = x })
	return out
}

// FromWorkspaceR snapshots a workspace's residual plane as a SparseVec.
func FromWorkspaceR(ws *kernel.Workspace) SparseVec {
	out := make(SparseVec)
	ws.ForEachR(func(u int, x float64) { out[u] = x })
	return out
}

// PushResult reports an approximate Personalized PageRank computation.
type PushResult struct {
	P SparseVec // the approximation: p ≈ pr_α(s), supported on few nodes
	R SparseVec // the residual; the invariant p + pr_α(r) = pr_α(s) holds
	// Pushes counts push operations; the ACL bound says
	// Σ_u deg(u) over pushes ≤ 1/(ε·α), independent of n.
	Pushes int
	// WorkVolume is Σ deg(u) over all pushes, the true cost measure.
	WorkVolume float64
}

// ApproxPageRank runs the Andersen–Chung–Lang push algorithm [1] on a
// fresh kernel workspace and snapshots the result into SparseVec maps.
// Layers that hold a workspace (ncp, service) should run
// kernel.PushACL directly and skip the map conversion; the numerical
// output is identical either way, bit for bit — on the compact and mmap
// backends alike (gstore.Wrap converts a builder graph to compact).
func ApproxPageRank(g gstore.Graph, seeds []int, alpha, eps float64) (*PushResult, error) {
	ws := kernel.NewWorkspace(g.N())
	st, err := kernel.PushACL{Alpha: alpha, Eps: eps}.Diffuse(g, ws, seeds)
	if err != nil {
		return nil, fmt.Errorf("local: %w", err)
	}
	return &PushResult{
		P:      FromWorkspaceP(ws),
		R:      FromWorkspaceR(ws),
		Pushes: st.Pushes, WorkVolume: st.WorkVolume,
	}, nil
}

// DegreeNormalized returns the degree-normalized profile p(u)/deg(u) over
// the support, the quantity whose sweep realizes the local Cheeger
// guarantee. Zero-degree nodes are skipped.
func DegreeNormalized(g gstore.Graph, p SparseVec) SparseVec {
	out := make(SparseVec, len(p))
	for u, x := range p {
		if d := g.Degree(u); d > 0 {
			out[u] = x / d
		}
	}
	return out
}

// SweepOrder returns the support of v ordered by decreasing value
// (ties by node id).
func SweepOrder(v SparseVec) []int {
	order := v.Support()
	sort.Slice(order, func(a, b int) bool {
		va, vb := v[order[a]], v[order[b]]
		if va != vb {
			return va > vb
		}
		return order[a] < order[b]
	})
	return order
}

// SweepCut performs the local sweep: order the support of p by
// p(u)/deg(u) and return the best-conductance prefix. The cost depends
// only on the support size and its boundary, not on n.
func SweepCut(g gstore.Graph, p SparseVec) (*partition.SweepResult, error) {
	if len(p) == 0 {
		return nil, errors.New("local: sweep over empty vector")
	}
	order := SweepOrder(DegreeNormalized(g, p))
	if len(order) == 0 {
		return nil, errors.New("local: sweep support has only zero-degree nodes")
	}
	return partition.SweepCutOrdered(g, order, len(order))
}

// WorkspaceSweepCut is SweepCut over a workspace's output plane. It
// runs entirely on the workspace's sweep scratch (kernel.SweepOrderP +
// SweepScan), so it costs O(support) whatever the graph size and
// allocates only the returned set; the cut is bit-identical to
// partition.SweepCutOrdered over SweepOrder(DegreeNormalized(g, p)).
func WorkspaceSweepCut(g gstore.Graph, ws *kernel.Workspace) (*partition.SweepResult, error) {
	k := ws.SweepOrderP(g)
	if k == 0 {
		if ws.PSupport() == 0 {
			return nil, errors.New("local: sweep over empty vector")
		}
		return nil, errors.New("local: sweep support has only zero-degree nodes")
	}
	prefix, phi := bestSweepPrefix(g, ws, k)
	if prefix == 0 {
		return nil, errors.New("partition: sweep found no valid cut")
	}
	return sweepResult(ws, prefix, phi), nil
}

// bestSweepPrefix finds the best-conductance prefix of the k-node sweep
// order currently loaded in ws, with partition.SweepCutOrdered's
// semantics: prefixes are capped at n-1 nodes, a prefix whose smaller
// side has no volume is skipped, the first minimum wins. A zero prefix
// means no prefix was a valid cut.
func bestSweepPrefix(g gstore.Graph, ws *kernel.Workspace, k int) (prefix int, phi float64) {
	volume := g.Volume()
	phi = math.Inf(1)
	ws.SweepScan(g, min(k, g.N()-1), func(size int, cut, vol float64) bool {
		if denom := math.Min(vol, volume-vol); denom > 0 {
			if p := cut / denom; p < phi {
				phi, prefix = p, size
			}
		}
		return true
	})
	return prefix, phi
}

// sweepResult copies a prefix of the loaded sweep order out of the
// workspace scratch.
func sweepResult(ws *kernel.Workspace, prefix int, phi float64) *partition.SweepResult {
	return &partition.SweepResult{
		Set:         ws.SweepNodes(make([]int, 0, prefix), prefix),
		Conductance: phi,
		Prefix:      prefix,
	}
}
