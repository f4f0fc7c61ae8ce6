// Command gengraph generates any of the built-in graph families and
// writes it as an edge list to stdout or a file. An -out path ending in
// ".gsnap" writes the binary CSR snapshot format instead, so expensive
// generations are parsed once and reload in milliseconds (graphd -load
// and graphctl graph import accept .gsnap inputs).
//
// Usage:
//
//	gengraph -family forestfire -n 20000 -seed 1 -out graph.txt
//	gengraph -family forestfire -n 20000 -seed 1 -out graph.gsnap
//	gengraph -family dumbbell -clique 10 -path 4
//	gengraph -family chunglu -n 5000 -gamma 2.5
//
// Families: path, cycle, complete, star, grid, tree, lollipop, dumbbell,
// ringofcliques, caveman, regular, er, chunglu, ws, planted, forestfire,
// whiskered.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/persist"
)

func main() {
	var (
		family  = flag.String("family", "forestfire", "graph family to generate")
		n       = flag.Int("n", 1000, "number of nodes (families that take n)")
		rows    = flag.Int("rows", 10, "grid rows")
		cols    = flag.Int("cols", 10, "grid cols")
		cliqueN = flag.Int("clique", 8, "clique size (lollipop/dumbbell/ring/caveman)")
		pathN   = flag.Int("path", 8, "path length (lollipop/dumbbell)")
		k       = flag.Int("k", 4, "number of cliques/blocks/lattice degree")
		deg     = flag.Int("deg", 6, "degree (regular/whiskered)")
		p       = flag.Float64("p", 0.01, "edge probability (er) / rewire prob (ws)")
		pin     = flag.Float64("pin", 0.3, "within-block probability (planted)")
		pout    = flag.Float64("pout", 0.01, "between-block probability (planted)")
		gamma   = flag.Float64("gamma", 2.5, "power-law exponent (chunglu)")
		fwd     = flag.Float64("fwd", 0.37, "forward burn probability (forestfire)")
		whisk   = flag.Int("whiskers", 20, "whisker count (whiskered)")
		whiskL  = flag.Int("whiskerlen", 6, "whisker length (whiskered)")
		seed    = flag.Int64("seed", 1, "RNG seed")
		out     = flag.String("out", "", "output file; a .gsnap suffix writes a binary snapshot (default stdout edge list)")
	)
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))

	g, err := build(*family, buildParams{
		n: *n, rows: *rows, cols: *cols, cliqueN: *cliqueN, pathN: *pathN,
		k: *k, deg: *deg, p: *p, pin: *pin, pout: *pout, gamma: *gamma,
		fwd: *fwd, whisk: *whisk, whiskL: *whiskL,
	}, rng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
		os.Exit(1)
	}
	if strings.HasSuffix(*out, persist.SnapshotExt) {
		// Binary snapshot output: checksummed, written atomically
		// (temp + rename), and loadable by every .gsnap-aware consumer.
		if err := persist.WriteSnapshotFile(*out, gstore.Wrap(g)); err != nil {
			fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
			os.Exit(1)
		}
	} else {
		w := os.Stdout
		var file *os.File
		if *out != "" {
			file, err = os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
				os.Exit(1)
			}
			w = file
		}
		if err := g.WriteEdgeList(w); err != nil {
			fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
			os.Exit(1)
		}
		// Close the output file explicitly: an edge list that fails to
		// flush must fail the command, not vanish silently as a deferred
		// Close error would.
		if file != nil {
			if err := file.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
				os.Exit(1)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "generated %s: n=%d m=%d volume=%g connected=%v\n",
		*family, g.N(), g.M(), g.Volume(), g.IsConnected())
}

type buildParams struct {
	n, rows, cols, cliqueN, pathN, k, deg, whisk, whiskL int
	p, pin, pout, gamma, fwd                             float64
}

func build(family string, bp buildParams, rng *rand.Rand) (*graph.Graph, error) {
	switch family {
	case "path":
		return gen.Path(bp.n), nil
	case "cycle":
		return gen.Cycle(bp.n), nil
	case "complete":
		return gen.Complete(bp.n), nil
	case "star":
		return gen.Star(bp.n), nil
	case "grid":
		return gen.Grid(bp.rows, bp.cols), nil
	case "tree":
		return gen.BinaryTree(bp.k), nil
	case "lollipop":
		return gen.Lollipop(bp.cliqueN, bp.pathN), nil
	case "dumbbell":
		return gen.Dumbbell(bp.cliqueN, bp.pathN), nil
	case "ringofcliques":
		return gen.RingOfCliques(bp.k, bp.cliqueN), nil
	case "caveman":
		return gen.Caveman(bp.k, bp.cliqueN), nil
	case "regular":
		return gen.RandomRegular(bp.n, bp.deg, rng)
	case "er":
		return gen.ErdosRenyi(bp.n, bp.p, rng)
	case "chunglu":
		w := gen.PowerLawWeights(bp.n, bp.gamma, 2, 0, rng)
		return gen.ChungLu(w, rng)
	case "ws":
		return gen.WattsStrogatz(bp.n, bp.k, bp.p, rng)
	case "planted":
		return gen.PlantedPartition(bp.k, bp.n, bp.pin, bp.pout, rng)
	case "forestfire":
		return gen.ForestFire(gen.ForestFireConfig{N: bp.n, FwdProb: bp.fwd, Ambs: 1}, rng)
	case "whiskered":
		return gen.WhiskeredExpander(bp.n, bp.deg, bp.whisk, bp.whiskL, rng)
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}
