package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/spectral"
	"repro/internal/vec"
)

// Sec33LocalityRow measures the strong-locality claim at one graph size.
type Sec33LocalityRow struct {
	N          int
	M          int
	Pushes     int     // ACL push operations
	WorkVolume float64 // Σ deg over pushes (the ACL cost measure)
	Support    int     // support of the output vector
	NibbleMax  int     // max support of the truncated walk
	MOVIters   int     // CG iterations of the global MOV solve
	MOVTouched int     // nodes touched by MOV (always n)
	PushMicros int64   // wall time of the push run, for color only
	MOVMicros  int64
}

// Sec33LocalRuntime measures §3.3's claim that the operational methods'
// "running time depends on the size of the output and is independent even
// of the number of nodes in the graph": the push work stays flat as n
// grows 30×, while the optimization approach (MOV) touches all n nodes.
func Sec33LocalRuntime(seed int64) ([]Sec33LocalityRow, error) {
	rng := rand.New(rand.NewSource(seed))
	var rows []Sec33LocalityRow
	for _, n := range []int{1000, 3000, 10000} {
		g, err := gen.ForestFire(gen.ForestFireConfig{N: n, FwdProb: 0.35, Ambs: 1}, rng)
		if err != nil {
			return nil, fmt.Errorf("experiments: sec3.3 generator n=%d: %w", n, err)
		}
		const alpha, eps = 0.1, 1e-4
		ws := kernel.NewWorkspace(n)
		t0 := time.Now()
		pr, err := kernel.PushACL{Alpha: alpha, Eps: eps}.Diffuse(g, ws, []int{17})
		if err != nil {
			return nil, err
		}
		pushDur := time.Since(t0)
		support := ws.PSupport()
		nb, err := kernel.NibbleWalk{Eps: eps, Steps: 25}.Diffuse(g, ws, []int{17})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		mv, err := mov(g, []int{17}, -0.1, 2000, 1e-8)
		if err != nil {
			return nil, err
		}
		movDur := time.Since(t1)
		rows = append(rows, Sec33LocalityRow{
			N: n, M: g.M(),
			Pushes: pr.Pushes, WorkVolume: pr.WorkVolume, Support: support,
			NibbleMax: nb.MaxSupport,
			MOVIters:  mv.Iterations, MOVTouched: n,
			PushMicros: pushDur.Microseconds(), MOVMicros: movDur.Microseconds(),
		})
	}
	return rows, nil
}

// Sec33LocalityTable renders the locality rows.
func Sec33LocalityTable(rows []Sec33LocalityRow) *Table {
	t := &Table{
		Title:   "§3.3 strong locality: push/Nibble work vs graph size (α=0.1, ε=1e-4)",
		Columns: []string{"n", "m", "pushes", "work-vol", "support", "nibble-max", "MOV touched", "push µs", "MOV µs"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			d(r.N), d(r.M), d(r.Pushes), f(r.WorkVolume), d(r.Support),
			d(r.NibbleMax), d(r.MOVTouched), d(int(r.PushMicros)), d(int(r.MOVMicros)),
		})
	}
	t.Notes = append(t.Notes,
		"push work is bounded by 1/(εα) = 1e5 regardless of n; MOV always touches all n nodes",
	)
	return t
}

// Sec33CheegerRow is one seed of the local-Cheeger experiment.
type Sec33CheegerRow struct {
	Seed        int
	PhiLocal    float64 // best local sweep conductance
	PhiPlanted  float64 // conductance of the planted block containing the seed
	Jaccard     float64 // overlap between found cluster and planted block
	SupportSize int
}

// Sec33LocalCheeger checks that the local methods obtain Cheeger-like
// cuts near their seeds: on a planted-partition graph the push + sweep
// pipeline recovers clusters whose conductance is within a small factor
// of the planted block's.
func Sec33LocalCheeger(seed int64) ([]Sec33CheegerRow, error) {
	rng := rand.New(rand.NewSource(seed))
	const k, blockN = 6, 40
	g, err := gen.PlantedPartition(k, blockN, 0.35, 0.004, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: sec3.3 planted graph: %w", err)
	}
	ws := kernel.NewWorkspace(g.N())
	var rows []Sec33CheegerRow
	for trial := 0; trial < 6; trial++ {
		s := rng.Intn(g.N())
		block := s / blockN
		blockNodes := make([]int, blockN)
		for i := range blockNodes {
			blockNodes[i] = block*blockN + i
		}
		phiPlanted := g.ConductanceOfSet(blockNodes)
		if _, err := (kernel.PushACL{Alpha: 0.03, Eps: 2e-6}).Diffuse(g, ws, []int{s}); err != nil {
			return nil, err
		}
		ws.SweepOrderP(g)
		prefix, phi := ws.SweepBest(g)
		if prefix == 0 {
			return nil, fmt.Errorf("experiments: sec3.3 seed %d has no sweep cut", s)
		}
		rows = append(rows, Sec33CheegerRow{
			Seed:        s,
			PhiLocal:    phi,
			PhiPlanted:  phiPlanted,
			Jaccard:     jaccard(ws.SweepNodes(nil, prefix), blockNodes),
			SupportSize: ws.PSupport(),
		})
	}
	return rows, nil
}

func jaccard(a, b []int) float64 {
	inA := map[int]bool{}
	for _, u := range a {
		inA[u] = true
	}
	inter := 0
	for _, u := range b {
		if inA[u] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Sec33CheegerTable renders the local-Cheeger rows.
func Sec33CheegerTable(rows []Sec33CheegerRow) *Table {
	t := &Table{
		Title:   "§3.3 local Cheeger-like guarantees on a planted partition (6 blocks × 40)",
		Columns: []string{"seed", "φ(local sweep)", "φ(planted block)", "jaccard", "support"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{d(r.Seed), f(r.PhiLocal), f(r.PhiPlanted), f(r.Jaccard), d(r.SupportSize)})
	}
	t.Notes = append(t.Notes, "the local sweep tracks the planted conductance while touching only a neighborhood of the seed")
	return t
}

// Sec33MOVRow compares the two §3.3 approaches at one locality setting.
type Sec33MOVRow struct {
	Gamma       float64
	Correlation float64 // |cos| between MOV embedding and PPR embedding
	MOVRayleigh float64
	SeedCorr    float64 // MOV's locality constraint value κ
}

// Sec33MOVvsPush quantifies the informal §3.3 statement that the MOV
// "optimization approach" is solved by a Personalized PageRank
// computation: for γ < 0 the MOV solution with μ = −γ is the resolvent
// (𝓛 + μI)^{-1}D^{1/2}s, a PPR-type vector; the two embeddings correlate
// almost perfectly at matched parameters, while the γ ↑ λ₂ end departs
// from PPR toward the global Fiedler vector.
func Sec33MOVvsPush(seed int64) ([]Sec33MOVRow, error) {
	rng := rand.New(rand.NewSource(seed))
	g, err := connectedER(rng, 80, 0.08)
	if err != nil {
		return nil, err
	}
	seedNode := 5
	var rows []Sec33MOVRow
	for _, gamma := range []float64{-5, -1, -0.2, -0.05} {
		mv, err := mov(g, []int{seedNode}, gamma, 0, 0)
		if err != nil {
			return nil, err
		}
		// Matched PPR resolvent in the symmetric coordinates:
		// y = (𝓛 + μI)^{-1} P D^{1/2} s with μ = −γ, computed densely via
		// the exact PPR correspondence γ_pr = μ/(1+μ).
		ppr, err := resolventVector(g, seedNode, -gamma)
		if err != nil {
			return nil, err
		}
		cos := math.Abs(vec.Dot(mv.Vector, ppr)) / (vec.Norm2(mv.Vector) * vec.Norm2(ppr))
		rows = append(rows, Sec33MOVRow{
			Gamma:       gamma,
			Correlation: cos,
			MOVRayleigh: mv.Rayleigh,
			SeedCorr:    mv.SeedCorrelation,
		})
	}
	return rows, nil
}

// resolventVector computes (𝓛 + μI)^{-1} P D^{1/2} e_seed by conjugate
// gradients, the PPR-type object MOV reduces to for negative γ.
func resolventVector(g *graph.Graph, seed int, mu float64) ([]float64, error) {
	n := g.N()
	lap := spectral.NormalizedLaplacian(g)
	trivial := spectral.TrivialEigvec(g)
	rhs := make([]float64, n)
	rhs[seed] = math.Sqrt(g.Degree(seed))
	vec.ProjectOut(rhs, trivial)
	x := make([]float64, n)
	r := vec.Clone(rhs)
	p := vec.Clone(r)
	rs := vec.Dot(r, r)
	for it := 0; it < 10*n; it++ {
		ap := lap.MulVec(p, nil)
		vec.Axpy(mu, p, ap)
		vec.ProjectOut(ap, trivial)
		alphaStep := rs / vec.Dot(p, ap)
		vec.Axpy(alphaStep, p, x)
		vec.Axpy(-alphaStep, ap, r)
		rsNew := vec.Dot(r, r)
		if math.Sqrt(rsNew) < 1e-12*vec.Norm2(rhs) {
			break
		}
		vec.Scale(rsNew/rs, p)
		vec.Axpy(1, r, p)
		rs = rsNew
	}
	vec.Normalize(x)
	return x, nil
}

// Sec33MOVTable renders the MOV-vs-PPR rows.
func Sec33MOVTable(rows []Sec33MOVRow) *Table {
	t := &Table{
		Title:   "§3.3 MOV optimization approach vs PPR resolvent (γ < 0 regime)",
		Columns: []string{"γ", "|cos(MOV, resolvent)|", "Rayleigh", "seed corr κ"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{f(r.Gamma), f(r.Correlation), f(r.MOVRayleigh), f(r.SeedCorr)})
	}
	t.Notes = append(t.Notes, "correlation ≈ 1: the MOV program is exactly solved by a Personalized-PageRank-type computation")
	return t
}

// Sec33SeedResult reports the seed-not-in-own-cluster phenomenon.
type Sec33SeedResult struct {
	GraphDesc   string
	SeedNode    int
	ClusterSize int
	SeedInside  bool
	Phi         float64
}

// Sec33SeedNotInCluster exhibits §3.3's counterintuitive effect:
// "counterintuitive things like a seed node not being part of 'its own
// cluster' can easily happen". The construction makes the seed a
// high-degree hub adjacent to every node of a tight clique and to many
// expander nodes: the truncated walk's mass is trapped inside the clique
// while the hub itself drains into the expander, so the hub's
// degree-normalized mass ranks below every clique node and the best
// sweep cut — exactly the clique — excludes the seed.
func Sec33SeedNotInCluster(seed int64) (*Sec33SeedResult, error) {
	rng := rand.New(rand.NewSource(seed))
	const coreN, cliqueN, expEdges = 300, 10, 40
	core, err := gen.RandomRegular(coreN, 6, rng)
	if err != nil {
		return nil, err
	}
	// Nodes 0..coreN-1 expander, then the clique, then the hub.
	n := coreN + cliqueN + 1
	b := graph.NewBuilder(n)
	core.Edges(func(u, v int, w float64) { b.AddWeightedEdge(u, v, w) })
	for i := 0; i < cliqueN; i++ {
		for j := i + 1; j < cliqueN; j++ {
			b.AddEdge(coreN+i, coreN+j)
		}
	}
	hub := coreN + cliqueN
	for i := 0; i < cliqueN; i++ {
		b.AddEdge(hub, coreN+i)
	}
	used := map[int]bool{}
	for len(used) < expEdges {
		v := rng.Intn(coreN)
		if !used[v] {
			used[v] = true
			b.AddEdge(hub, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("experiments: sec3.3 seed construction: %w", err)
	}
	// Sweep after every step of the walk, as Spielman–Teng do, and keep
	// the best cut.
	var best []int
	bestPhi := math.Inf(1)
	walk := kernel.NibbleWalk{Eps: 1e-6, Steps: 20, OnStep: func(_ int, ws *kernel.Workspace) error {
		ws.SweepOrderR(g)
		if prefix, phi := ws.SweepBest(g); prefix > 0 && phi < bestPhi {
			best, bestPhi = ws.SweepNodes(best[:0], prefix), phi
		}
		return nil
	}}
	if _, err := walk.Diffuse(g, kernel.NewWorkspace(n), []int{hub}); err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("experiments: sec3.3 seed construction produced no sweep cut")
	}
	return &Sec33SeedResult{
		GraphDesc:   "expander(300,6) + K10 + hub seed (10 clique edges, 40 expander edges), Nibble",
		SeedNode:    hub,
		ClusterSize: len(best),
		SeedInside:  slices.Contains(best, hub),
		Phi:         bestPhi,
	}, nil
}

// Table renders the seed experiment.
func (r *Sec33SeedResult) Table() *Table {
	t := &Table{
		Title:   "§3.3 seed not in its own cluster",
		Columns: []string{"construction", "seed", "cluster size", "seed inside?", "φ"},
	}
	t.Rows = append(t.Rows, []string{r.GraphDesc, d(r.SeedNode), d(r.ClusterSize), fmt.Sprintf("%v", r.SeedInside), f(r.Phi)})
	t.Notes = append(t.Notes, "the truncated walk's implicit regularization favors the well-connected cluster, leaving the seed outside")
	return t
}
