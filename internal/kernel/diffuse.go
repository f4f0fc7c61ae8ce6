package kernel

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/gstore"
)

// Stats reports the work one diffusion performed. Only the fields a
// given Diffuser produces are set; the zero value means "not measured".
type Stats struct {
	// Pushes counts ACL push operations; the bound of [1] says
	// Σ deg(u) over pushes ≤ 1/(ε·α), independent of n.
	Pushes int
	// WorkVolume is Σ deg(u) over pushes, the true ACL cost measure.
	WorkVolume float64
	// Steps is the number of truncated-walk steps taken (Nibble).
	Steps int
	// Terms is the number of Taylor terms applied (heat kernel).
	Terms int
	// MaxSupport is the largest live support reached by a walk, the
	// locality measure bounded by the truncation threshold, not by n.
	MaxSupport int
}

// Diffuser is one strongly-local diffusion strategy over the shared
// workspace. After DiffuseContext returns, the workspace's P plane
// holds the method's primary output vector (the PPR approximation, the
// truncated walk distribution, the heat-kernel approximation); PushACL
// leaves its residual in the R plane. The workspace is Reset at entry,
// so a pooled workspace needs no cleaning between uses.
//
// Every diffusion is the engine's unit of work (batch.go): validate, seed
// the R plane with the seed set, run the strategy's runner on the
// workspace. The loops run over the compact graph's raw CSR arrays
// behind one dispatch (csr.go), so the arithmetic — and therefore the
// floating-point output — is identical bit for bit across the compact
// and mmap backends; a graph the dispatch does not know is an error.
type Diffuser interface {
	// DiffuseContext runs the diffusion under ctx: once ctx is done the
	// run stops, between walk steps or within 4096 pushes, with ctx's
	// error.
	DiffuseContext(ctx context.Context, g gstore.Graph, ws *Workspace, seeds []int) (Stats, error)
}

// seedR resets the workspace, spreads the uniform seed distribution
// into the R plane (mass accumulates over duplicate seeds, in seed
// order) and sorts its touched list ascending, the deterministic
// starting state every diffusion shares.
func seedR(g gstore.Graph, ws *Workspace, seeds []int) error {
	ws.Reset()
	if len(seeds) == 0 {
		return errors.New("kernel: diffusion needs a nonempty seed set")
	}
	if ws.n != g.N() {
		return fmt.Errorf("kernel: workspace sized for %d nodes used on a %d-node graph", ws.n, g.N())
	}
	w := 1 / float64(len(seeds))
	for _, u := range seeds {
		if u < 0 || u >= g.N() {
			return fmt.Errorf("kernel: seed %d out of range [0,%d)", u, g.N())
		}
		ws.r.add(u, w)
	}
	ws.r.sortList()
	return nil
}

// PushACL is the Andersen–Chung–Lang push algorithm [1]: compute an
// ε-approximate Personalized PageRank vector with teleportation α in
// work O(1/(εα)) independent of the graph size, under the lazy-walk
// convention pr = α·s + (1−α)·pr·W with W = (I + AD^{-1})/2.
//
// Each push takes the lazy step — bank α·r(u) into p, keep half the
// rest at u, spread the other half over the neighbours — unless the
// kept half would still be ≥ ε·deg(u). Then it settles u in closed
// form: 2α/(1+α)·r(u) to p, nothing kept, (1−α)/(1+α)·r(u) spread.
// Residuals below ε·deg(u) are never pushed — the implicit
// regularization by truncation that §3.3 identifies. Only the frontier
// keeps the lazy step, so the support stays nearly the lazy push's.
type PushACL struct {
	Alpha float64 // teleportation, in (0,1)
	Eps   float64 // truncation threshold, > 0
}

func (d PushACL) validate() error {
	if d.Alpha <= 0 || d.Alpha >= 1 {
		return fmt.Errorf("kernel: push alpha=%v outside (0,1)", d.Alpha)
	}
	if d.Eps <= 0 {
		return fmt.Errorf("kernel: push eps=%v must be positive", d.Eps)
	}
	return nil
}

// Diffuse runs the push. P gets the approximation, R the residual; the
// invariant p + pr_α(r) = pr_α(s) holds.
func (d PushACL) Diffuse(g gstore.Graph, ws *Workspace, seeds []int) (Stats, error) {
	return d.DiffuseContext(context.Background(), g, ws, seeds)
}

// DiffuseContext implements Diffuser.
func (d PushACL) DiffuseContext(ctx context.Context, g gstore.Graph, ws *Workspace, seeds []int) (Stats, error) {
	if err := d.validate(); err != nil {
		return Stats{}, err
	}
	if err := seedR(g, ws, seeds); err != nil {
		return Stats{}, err
	}
	var st Stats
	err := d.run(ctx, g, ws, &st, nil)
	return st, err
}

// NibbleWalk is the Spielman–Teng truncated lazy random walk [39]:
// evolve the seed distribution with W = (I + AD^{-1})/2 and after every
// step zero out every entry with q(u) < eps·deg(u). The truncation
// keeps the support — and hence the work — small and independent of n.
//
// Unlike the legacy map implementation, each step processes nodes in
// ascending id order, so the floating-point result is deterministic
// (the map version depended on Go's randomized map iteration).
type NibbleWalk struct {
	Eps   float64 // truncation threshold, > 0
	Steps int     // walk steps, >= 1
	// OnStep, when non-nil, is called after each step's truncation
	// while the R plane holds the current (post-truncation, nonempty)
	// distribution with its touched list sorted ascending. Returning an
	// error aborts the walk. graphd's localcluster uses it to sweep every
	// step.
	OnStep func(step int, ws *Workspace) error
}

func (d NibbleWalk) validate() error {
	if d.Eps <= 0 {
		return fmt.Errorf("kernel: nibble eps=%v must be positive", d.Eps)
	}
	if d.Steps < 1 {
		return fmt.Errorf("kernel: nibble steps=%d must be >= 1", d.Steps)
	}
	return nil
}

// Diffuse runs the walk. P (and R) hold the final distribution; an
// OnStep error aborts it and is returned with the Stats so far.
func (d NibbleWalk) Diffuse(g gstore.Graph, ws *Workspace, seeds []int) (Stats, error) {
	return d.DiffuseContext(context.Background(), g, ws, seeds)
}

// DiffuseContext implements Diffuser.
func (d NibbleWalk) DiffuseContext(ctx context.Context, g gstore.Graph, ws *Workspace, seeds []int) (Stats, error) {
	if err := d.validate(); err != nil {
		return Stats{}, err
	}
	if err := seedR(g, ws, seeds); err != nil {
		return Stats{}, err
	}
	var st Stats
	err := d.run(ctx, g, ws, &st, d.OnStep)
	return st, err
}

// HeatKernel approximates Chung's heat-kernel PageRank [15]
// exp(−t(I−W))·s with a truncated Taylor expansion over the lazy walk
// W, zeroing entries below eps·deg(u) after every term — the same
// truncation-as-regularization design as Nibble applied to the heat
// dynamics. The number of terms K is chosen so the series tail is below
// eps/2 (K grows like t + log(1/eps), independent of n). Like
// NibbleWalk, term evaluation processes nodes in ascending id order, so
// the result is deterministic.
type HeatKernel struct {
	T   float64 // diffusion time, in (0, 700]
	Eps float64 // truncation threshold, > 0
}

// maxHeatT bounds HeatKernel.T: the series is weighted by the Poisson(t)
// pmf e^{−t}·t^k/k!, and e^{−t} goes subnormal past t ≈ 708.4, beyond
// which the weights lose their mass and the expansion its support.
const maxHeatT = 700

func (d HeatKernel) validate() error {
	if d.T <= 0 || math.IsNaN(d.T) || math.IsInf(d.T, 0) {
		return fmt.Errorf("kernel: heat kernel t=%v must be positive and finite", d.T)
	}
	if d.T > maxHeatT {
		return fmt.Errorf("kernel: heat kernel t=%v exceeds %d", d.T, maxHeatT)
	}
	if d.Eps <= 0 {
		return fmt.Errorf("kernel: heat kernel eps=%v must be positive", d.Eps)
	}
	return nil
}

// terms returns the Taylor term count K with tail
// Σ_{k>K} e^{-t} t^k/k! < eps/2.
func (d HeatKernel) terms() int {
	k := 1
	tail := 1 - math.Exp(-d.T)
	term := math.Exp(-d.T)
	for tail > d.Eps/2 && k < 10000 {
		term *= d.T / float64(k)
		tail -= term
		k++
	}
	return k
}

// DiffuseContext implements Diffuser: it runs the expansion. P holds
// the heat-kernel approximation; R holds the final Taylor iterate
// (usually empty after truncation).
func (d HeatKernel) DiffuseContext(ctx context.Context, g gstore.Graph, ws *Workspace, seeds []int) (Stats, error) {
	if err := d.validate(); err != nil {
		return Stats{}, err
	}
	if err := seedR(g, ws, seeds); err != nil {
		return Stats{}, err
	}
	var st Stats
	err := d.run(ctx, g, ws, &st, nil)
	return st, err
}
