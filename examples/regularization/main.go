// Regularization as robustness: the paper's thesis made operational.
//
// Regularized estimation (reference [36]): when the observed graph is an
// edge-sample of a population graph, the entropy-regularized SDP solution
// (= a heat-kernel diffusion) estimates the population's spectral
// structure with lower risk than the exact eigenvector of the sample —
// the U-shaped risk curve in η.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/regsdp"
)

func main() {
	rng := rand.New(rand.NewSource(3))

	population := gen.RingOfCliques(6, 6)
	etas := []float64{0.5, 1, 2, 5, 10, 50, 200, 1000}
	res, err := regsdp.BayesRisk(population, 0.7, etas, 12, rng)
	if err != nil {
		log.Fatalf("bayes risk: %v", err)
	}
	fmt.Println("estimating the population Fiedler structure from 70% edge samples:")
	fmt.Printf("  exact (unregularized) estimator risk: %.4f\n", res.UnregularizedRisk)
	fmt.Println("  heat-kernel (entropy-regularized) estimator risk by eta:")
	for _, pt := range res.Curve {
		marker := ""
		if pt.Eta == res.BestEta {
			marker = "   <- best"
		}
		fmt.Printf("    eta=%7.1f   risk %.4f%s\n", pt.Eta, pt.Risk, marker)
	}
	fmt.Printf("  best regularized risk %.4f at eta=%g: %.1f%% below the exact estimator.\n",
		res.BestRisk, res.BestEta, 100*res.Improvement())
	fmt.Println()
	fmt.Println("reading: small eta over-smooths (all-directions average), large eta")
	fmt.Println("converges to the exact-but-noisy eigenvector; the minimum in between is")
	fmt.Println("the implicit regularization the paper says approximation buys for free.")
}
