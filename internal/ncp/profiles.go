package ncp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/partition"
)

// SpectralConfig parameterizes the spectral/local profile (the blue
// "LocalSpectral" method of Fig. 1).
type SpectralConfig struct {
	// Seeds is the number of random seed nodes per scale (default 20).
	Seeds int
	// Alphas are the PPR teleportation values to sweep (default a
	// geometric grid from 0.2 down to 0.001, one scale per target size).
	Alphas []float64
	// EpsFactor scales the push tolerance: eps = EpsFactor/targetVolume
	// with targetVolume ≈ vol(V)·alpha heuristics; default 0.1.
	EpsFactor float64
	// MaxClusterFrac caps cluster volume at this fraction of vol(V)
	// (default 0.5: conductance's smaller side).
	MaxClusterFrac float64
	// Workers is the number of concurrent (α, seed) sweep workers
	// (default runtime.NumCPU(); 1 runs serially). The profile is
	// identical whatever the worker count.
	Workers int
	// BaseSeed drives the per-task RNGs: task (α-index i, seed-index s)
	// uses par.TaskSeed(BaseSeed, i, s), so the sampled clusters depend
	// only on BaseSeed, not on scheduling. When 0, one value is drawn
	// from the rng argument of SpectralProfile.
	BaseSeed int64
	// OnProgress, when set, is called after each (α, seed) task finishes
	// with the number of completed tasks and the total. Calls may arrive
	// from multiple goroutines, and `done` is monotone per call site but
	// observations can interleave; the hook must be cheap and must not
	// panic. Progress reporting never affects the profile itself.
	OnProgress func(done, total int)
}

func (c *SpectralConfig) withDefaults() SpectralConfig {
	out := *c
	if out.Seeds <= 0 {
		out.Seeds = 20
	}
	if len(out.Alphas) == 0 {
		out.Alphas = []float64{0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001}
	}
	if out.EpsFactor <= 0 {
		out.EpsFactor = 0.1
	}
	if out.MaxClusterFrac <= 0 || out.MaxClusterFrac > 0.5 {
		out.MaxClusterFrac = 0.5
	}
	return out
}

// SpectralProfile samples clusters at many scales with the
// Andersen–Chung–Lang push algorithm and local sweep cuts: for each
// (seed, α) pair it computes an approximate PPR vector, sweeps it, and
// records every prefix that is a valid cluster. This is the
// "LocalSpectral" (blue) algorithm of Figure 1.
//
// The (α, seed) sweeps are independent, so they are fanned across
// cfg.Workers goroutines; each task derives its own RNG from
// cfg.BaseSeed (drawn from rng when unset), so the result is
// deterministic and independent of the worker count. The profile —
// every sampled cluster and every conductance float — is the same on
// an in-heap and a mapped graph.
//
// When ctx is cancelled or its deadline passes, the sweep stops
// dispatching (α, seed) tasks and the context's error is returned,
// which is what makes long NCP jobs cancellable from a serving layer.
func SpectralProfile(ctx context.Context, g *graph.Graph, cfg SpectralConfig, rng *rand.Rand) (*Profile, error) {
	c := (&cfg).withDefaults()
	if g.N() < 4 {
		return nil, errors.New("ncp: graph too small for a profile")
	}
	base := c.BaseSeed
	if base == 0 {
		base = rng.Int63()
	}
	maxVol := c.MaxClusterFrac * g.Volume()
	// One batch of seeds per α on the kernel batch engine. The seed
	// for (α, seed-index) is drawn from par.TaskSeed exactly as the old
	// one-task-per-pair loop drew it, each emit writes only its own
	// slot, and slots are concatenated in task order afterwards, so the
	// assembled profile is byte-identical for any worker count or
	// schedule. Workspaces are pooled by the engine: a run borrows at
	// most Workers of them from the size class it shares with every
	// other graph of its class.
	tasks := len(c.Alphas) * c.Seeds
	perTask := make([][]Cluster, tasks)
	pool := kernel.NewPool(g.N())
	step := progressStepper(c.OnProgress, tasks)
	seeds := make([]int, c.Seeds)
	for ai, alpha := range c.Alphas {
		eps := pushEps(alpha, g.Volume(), c.EpsFactor)
		for si := range seeds {
			trng := rand.New(rand.NewSource(par.TaskSeed(base, ai, si)))
			seeds[si] = trng.Intn(g.N())
		}
		bd := kernel.BatchDiffuser{
			Method:  kernel.PushACL{Alpha: alpha, Eps: eps},
			Workers: c.Workers,
		}
		_, err := bd.Run(ctx, g, pool, seeds, func(si int, ws *kernel.Workspace, st kernel.Stats) error {
			defer step()
			if st.MaxSupport < 2 {
				return nil
			}
			sub := &Profile{}
			collectSweepClusters(g, ws, maxVol, sub, "spectral")
			perTask[ai*c.Seeds+si] = sub.Clusters
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("ncp: spectral profile push: %w", err)
		}
	}
	prof := &Profile{Method: "spectral"}
	for _, cs := range perTask {
		prof.Clusters = append(prof.Clusters, cs...)
	}
	if len(prof.Clusters) == 0 {
		return nil, errors.New("ncp: spectral profile produced no clusters")
	}
	return prof, nil
}

// progressStepper returns a goroutine-safe "one more task done" closure
// over fn: each call increments a shared counter and reports
// (done, total). A nil fn yields a no-op so call sites need no branching.
func progressStepper(fn func(done, total int), total int) func() {
	if fn == nil {
		return func() {}
	}
	var done atomic.Int64
	return func() { fn(int(done.Add(1)), total) }
}

// collectSweepClusters sweeps the workspace's output plane (support by
// p(u)/deg(u) descending) and records every prefix that improves the
// best conductance seen so far at its size bucket (a cheap way to keep
// the scatter informative without storing all n prefixes), stopping
// once the prefix volume passes maxVol. It runs on the workspace's
// sweep scratch, so apart from the recorded clusters its cost is that
// of the support, not of the graph.
func collectSweepClusters(g *graph.Graph, ws *kernel.Workspace, maxVol float64, prof *Profile, method string) {
	n, volume := g.N(), g.Volume()
	bestAtBucket := map[int]float64{}
	ws.SweepScan(g, ws.SweepOrderP(g), func(size int, cut, vol float64) bool {
		if vol > maxVol || size >= n {
			return false
		}
		denom := math.Min(vol, volume-vol)
		if denom <= 0 {
			return true
		}
		phi := cut / denom
		b := bucketOf(size)
		if cur, ok := bestAtBucket[b]; !ok || phi < cur {
			bestAtBucket[b] = phi
			nodes := ws.SweepNodes(make([]int, 0, size), size)
			prof.Clusters = append(prof.Clusters, Cluster{Nodes: nodes, Conductance: phi, Method: method})
		}
		return true
	})
}

// FlowConfig parameterizes the flow-based profile (the red "Metis+MQI"
// method of Fig. 1).
type FlowConfig struct {
	// MinSize stops the recursion when a piece has fewer nodes
	// (default 4).
	MinSize int
	// MaxDepth caps the recursion depth (default 40).
	MaxDepth int
	// BallSeeds is the number of BFS-ball seed sets per size scale that
	// are improved with MQI, in addition to the recursive bisection —
	// the [28] practice of running the flow improver at every target
	// size rather than only on bisection pieces (default 12; 0 keeps the
	// default, use -1 to disable).
	BallSeeds int
	// Multilevel options for each bisection.
	Multilevel partition.MultilevelOptions
	// Workers is the number of concurrent workers shared by the
	// bisection recursion and the ball-seed sweeps (default
	// runtime.NumCPU(); 1 runs serially). The profile is identical
	// whatever the worker count.
	Workers int
	// BaseSeed drives the per-task RNGs: bisection seeds follow the
	// recursion-tree path and ball-seed tasks use their (scale, seed)
	// coordinates, so the sampled clusters depend only on BaseSeed, not
	// on scheduling. When 0, one value is drawn from the rng argument of
	// FlowProfile.
	BaseSeed int64
	// OnProgress, when set, is called as the profile advances with the
	// number of completed units and the total: the whole bisection
	// recursion counts as one unit and each ball-seed task as one more.
	// Same contract as SpectralConfig.OnProgress.
	OnProgress func(done, total int)
}

func (c *FlowConfig) withDefaults() FlowConfig {
	out := *c
	if out.MinSize < 2 {
		out.MinSize = 4
	}
	if out.MaxDepth <= 0 {
		out.MaxDepth = 40
	}
	if out.BallSeeds == 0 {
		out.BallSeeds = 12
	}
	return out
}

// FlowProfile samples clusters at all scales with the Metis+MQI
// pipeline: recursively bisect the graph with the multilevel
// partitioner, improve the smaller side of every bisection with MQI, and
// record the improved sets. This is the flow-based (red) algorithm of
// Figure 1: it optimizes raw conductance aggressively and is expected to
// win on Fig. 1(a) while producing less "nice" clusters on 1(b)–1(c).
//
// The two independent branches of every bisection run concurrently
// under a cfg.Workers-bounded budget, and the ball-seed improvement
// sweeps fan out the same way; per-task seeds are derived from
// cfg.BaseSeed (drawn from rng when unset) and clusters are merged in a
// fixed pre-order, so the result is deterministic and independent of the
// worker count.
//
// Cancellation is cooperative: the bisection recursion checks ctx at
// every node and the ball-seed sweep stops dispatching tasks once ctx is
// done, returning the context's error.
func FlowProfile(ctx context.Context, g *graph.Graph, cfg FlowConfig, rng *rand.Rand) (*Profile, error) {
	c := (&cfg).withDefaults()
	if g.N() < 4 {
		return nil, errors.New("ncp: graph too small for a profile")
	}
	base := c.BaseSeed
	if base == 0 {
		base = rng.Int63()
	}
	prof := &Profile{Method: "flow"}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	// Progress units: the whole bisection recursion is one (its size is
	// data-dependent), then one per ball-seed task.
	total := 1
	if c.BallSeeds > 0 {
		total += len(ballSizes(g, c)) * c.BallSeeds
	}
	step := progressStepper(c.OnProgress, total)
	lim := par.NewLimiter(c.Workers)
	clusters, err := flowRecurse(ctx, g, all, 0, c, par.TaskSeed(base, 0), lim)
	if err != nil {
		return nil, err
	}
	step()
	prof.Clusters = clusters
	if c.BallSeeds > 0 {
		if err := flowBallSeeds(ctx, g, c, base, prof, step); err != nil {
			return nil, err
		}
	}
	flowUnions(g, prof)
	if len(prof.Clusters) == 0 {
		return nil, errors.New("ncp: flow profile produced no clusters")
	}
	return prof, nil
}

// flowUnions records greedy disjoint unions of the best flow clusters:
// sort by conductance, add each cluster whose nodes are disjoint from the
// union so far, and record every intermediate union. This is the flow
// analogue of what the spectral sweep does implicitly (its prefixes are
// unions of early whiskers), and it is how [27, 28] explain the NCP
// minimum beyond the best-whisker scale: unions of whiskers. Without it
// the flow method is structurally barred from the disconnected sets that
// realize the minimum at mid sizes.
func flowUnions(g *graph.Graph, prof *Profile) {
	base := append([]Cluster(nil), prof.Clusters...)
	sort.SliceStable(base, func(i, j int) bool { return base[i].Conductance < base[j].Conductance })
	// Greedy unions under a grid of member-size caps: the cap keeps large
	// low-φ clusters from swallowing the union budget, so every size
	// scale gets union entries built from the best clusters *below* it.
	for cap := 8; cap <= g.N(); cap *= 4 {
		flowUnionPass(g, base, cap, prof)
	}
	flowUnionPass(g, base, g.N()+1, prof)
}

// flowUnionPass runs one greedy disjoint-union accumulation over clusters
// of size < cap, recording every intermediate union of ≥ 2 members.
func flowUnionPass(g *graph.Graph, base []Cluster, cap int, prof *Profile) {
	inU := make([]bool, g.N())
	var union []int
	var cut, volU float64
	volume := g.Volume()
	taken := 0
	for _, c := range base {
		if len(c.Nodes) >= cap {
			continue
		}
		disjoint := true
		var volC float64
		for _, u := range c.Nodes {
			if inU[u] {
				disjoint = false
				break
			}
			volC += g.Degree(u)
		}
		// Skip (rather than stop at) clusters that overlap the union or
		// would push it past half the volume: the next-best smaller
		// cluster may still fit.
		if !disjoint || volU+volC > volume/2 {
			continue
		}
		for _, u := range c.Nodes {
			it := g.Neighbors(u)
			for v, w, ok := it.Next(); ok; v, w, ok = it.Next() {
				if inU[v] {
					cut -= w
				} else {
					cut += w
				}
			}
			inU[u] = true
		}
		volU += volC
		union = append(union, c.Nodes...)
		taken++
		if taken >= 2 { // singleton unions duplicate the base clusters
			denom := math.Min(volU, volume-volU)
			if denom > 0 {
				nodes := append([]int(nil), union...)
				prof.Clusters = append(prof.Clusters, Cluster{
					Nodes: nodes, Conductance: cut / denom, Method: "flow",
				})
			}
		}
	}
}

// flowBallSeeds grows BFS balls to a geometric grid of target sizes and
// improves each with the Andersen–Lang Improve flow procedure, populating
// the small and middle scales that recursive bisection visits only once
// per level. Improve (rather than MQI) is used because a BFS ball rarely
// *contains* the best nearby cut — Improve may grow past the ball, MQI
// may not. Each improved set is additionally polished with MQI on its
// smaller side. Failures (e.g. a ball exceeding half the volume) skip
// that seed; sampling is best-effort.
//
// The (scale, seed) tasks are independent and fan out across c.Workers
// goroutines; task (i, s) seeds its RNG with par.TaskSeed(base, 1, i, s)
// (the leading 1 separates the ball-seed stream from the recursion's)
// and writes to its own slot, merged in task order.
func flowBallSeeds(ctx context.Context, g *graph.Graph, c FlowConfig, base int64, prof *Profile, step func()) error {
	halfVol := g.Volume() / 2
	sizes := ballSizes(g, c)
	tasks := len(sizes) * c.BallSeeds
	perTask := make([][]Cluster, tasks)
	err := par.ForEachCtx(ctx, c.Workers, tasks, func(t int) error {
		defer step()
		si, s := t/c.BallSeeds, t%c.BallSeeds
		trng := rand.New(rand.NewSource(par.TaskSeed(base, 1, si, s)))
		var out []Cluster
		record := func(set []int, phi float64) {
			if len(set) == 0 || len(set) == g.N() || math.IsInf(phi, 1) {
				return
			}
			out = append(out, Cluster{Nodes: set, Conductance: phi, Method: "flow"})
		}
		ball := bfsBall(g, trng.Intn(g.N()), sizes[si])
		if len(ball) < 2 {
			return nil
		}
		if g.VolumeOf(g.Membership(ball)) > halfVol {
			return nil
		}
		imp, err := flow.Improve(g, ball)
		if err != nil {
			return nil // best-effort sampling: skip this seed
		}
		record(imp.Set, imp.Conductance)
		if g.VolumeOf(g.Membership(imp.Set)) <= halfVol {
			if mqi, err := flow.MQI(g, imp.Set); err == nil {
				record(mqi.Set, mqi.Conductance)
			}
		}
		perTask[t] = out
		return nil
	})
	if err != nil {
		return err
	}
	for _, cs := range perTask {
		prof.Clusters = append(prof.Clusters, cs...)
	}
	return nil
}

// ballSizes is the geometric grid of BFS-ball target sizes used by
// flowBallSeeds, factored out so FlowProfile can size its progress
// total before the sweep starts.
func ballSizes(g *graph.Graph, c FlowConfig) []int {
	var sizes []int
	for size := c.MinSize; size <= g.N()/2; size *= 2 {
		sizes = append(sizes, size)
	}
	return sizes
}

// bfsBall returns the first `size` nodes in BFS order from src (breadth
// ties in adjacency order).
func bfsBall(g *graph.Graph, src, size int) []int {
	visited := make([]bool, g.N())
	visited[src] = true
	out := []int{src}
	queue := []int{src}
	for len(queue) > 0 && len(out) < size {
		u := queue[0]
		queue = queue[1:]
		it := g.Neighbors(u)
		for v, _, ok := it.Next(); ok; v, _, ok = it.Next() {
			if !visited[v] {
				visited[v] = true
				out = append(out, v)
				queue = append(queue, v)
				if len(out) == size {
					break
				}
			}
		}
	}
	return out
}

// flowRecurse bisects the induced subgraph on nodes, records both sides
// (MQI-improved on the smaller-volume side), and recurses. The two
// branches are independent, so when the limiter has a free slot the
// first branch runs on its own goroutine; otherwise both run inline.
// Each recursion node derives its bisection seed from its parent's via
// the branch index, and the returned clusters are concatenated in fixed
// pre-order (own, then side A's subtree, then side B's), so the result
// does not depend on scheduling.
func flowRecurse(ctx context.Context, g *graph.Graph, nodes []int, depth int, c FlowConfig, seed int64, lim *par.Limiter) ([]Cluster, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(nodes) < c.MinSize || depth > c.MaxDepth {
		return nil, nil
	}
	sub, mapping, err := g.Subgraph(nodes)
	if err != nil {
		return nil, fmt.Errorf("ncp: flow profile subgraph: %w", err)
	}
	if sub.M() == 0 {
		return nil, nil
	}
	opts := c.Multilevel
	opts.Seed = seed
	bi, err := partition.MultilevelBisect(sub, opts)
	if err != nil {
		return nil, fmt.Errorf("ncp: flow profile bisect: %w", err)
	}
	var sideA, sideB []int
	for i, in := range bi.InS {
		if in {
			sideA = append(sideA, mapping[i])
		} else {
			sideB = append(sideB, mapping[i])
		}
	}
	if len(sideA) == 0 || len(sideB) == 0 {
		return nil, nil
	}
	// Record both sides (as clusters of the *host* graph), improving the
	// smaller-volume side with MQI.
	var own []Cluster
	for _, side := range [][]int{sideA, sideB} {
		if len(side) == 0 || len(side) == g.N() {
			continue
		}
		inHost := g.Membership(side)
		phi := g.Conductance(inHost)
		if !math.IsInf(phi, 1) {
			own = append(own, Cluster{Nodes: side, Conductance: phi, Method: "flow"})
		}
		if g.VolumeOf(inHost) <= g.Volume()/2 {
			if mqi, err := flow.MQI(g, side); err == nil {
				own = append(own, Cluster{
					Nodes: mqi.Set, Conductance: mqi.Conductance, Method: "flow",
				})
			}
		}
	}
	seedA, seedB := par.TaskSeed(seed, 1), par.TaskSeed(seed, 2)
	var subA, subB []Cluster
	var errA, errB error
	if lim.TryAcquire() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer lim.Release()
			subA, errA = flowRecurse(ctx, g, sideA, depth+1, c, seedA, lim)
		}()
		subB, errB = flowRecurse(ctx, g, sideB, depth+1, c, seedB, lim)
		wg.Wait()
	} else {
		subA, errA = flowRecurse(ctx, g, sideA, depth+1, c, seedA, lim)
		subB, errB = flowRecurse(ctx, g, sideB, depth+1, c, seedB, lim)
	}
	if errA != nil {
		return nil, errA
	}
	if errB != nil {
		return nil, errB
	}
	own = append(own, subA...)
	return append(own, subB...), nil
}

// EvaluateProfile computes Measures for every cluster in the profile
// whose size lies in [minSize, maxSize]. Duplicate clusters at the same
// (size, conductance) are evaluated once. When perBucket > 0, at most
// that many clusters are evaluated per power-of-two size bucket,
// preferring the lowest-conductance ones (the envelope Figure 1 reads)
// and keeping the rest of the budget in cluster order for scatter
// diversity; 0 means no cap. Evaluation cost on large profiles is
// dominated by per-cluster BFS, so the cap is what makes full-size
// Figure 1 runs tractable.
func EvaluateProfile(g *graph.Graph, p *Profile, minSize, maxSize, perBucket int) ([]*Measures, error) {
	type key struct {
		size int
		phi  float64
	}
	seen := map[key]bool{}
	var candidates []Cluster
	for _, c := range p.Clusters {
		if len(c.Nodes) < minSize || len(c.Nodes) > maxSize {
			continue
		}
		k := key{len(c.Nodes), math.Round(c.Conductance * 1e12)}
		if seen[k] {
			continue
		}
		seen[k] = true
		candidates = append(candidates, c)
	}
	if perBucket > 0 {
		// Keep the perBucket/2 best-φ clusters per bucket plus every
		// other cluster in arrival order up to the budget.
		byBucket := map[int][]int{}
		for i, c := range candidates {
			byBucket[bucketOf(len(c.Nodes))] = append(byBucket[bucketOf(len(c.Nodes))], i)
		}
		keep := make(map[int]bool)
		for _, idx := range byBucket {
			ordered := append([]int(nil), idx...)
			sort.Slice(ordered, func(a, b int) bool {
				return candidates[ordered[a]].Conductance < candidates[ordered[b]].Conductance
			})
			half := perBucket / 2
			if half < 1 {
				half = 1
			}
			for i := 0; i < len(ordered) && i < half; i++ {
				keep[ordered[i]] = true
			}
			budget := perBucket - half
			for _, i := range idx {
				if budget == 0 {
					break
				}
				if !keep[i] {
					keep[i] = true
					budget--
				}
			}
		}
		var pruned []Cluster
		for i, c := range candidates {
			if keep[i] {
				pruned = append(pruned, c)
			}
		}
		candidates = pruned
	}
	var out []*Measures
	for _, c := range candidates {
		m, err := Evaluate(g, c.Nodes)
		if err != nil {
			return nil, fmt.Errorf("ncp: evaluating %d-node cluster: %w", len(c.Nodes), err)
		}
		out = append(out, m)
	}
	return out, nil
}
