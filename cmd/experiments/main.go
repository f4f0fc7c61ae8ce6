// Command experiments runs the full paper-reproduction suite — Figure 1
// (all three panels) and every quantitative §3 claim — and prints their
// tables; the claim tests in internal/experiments assert what each
// table shows. All runs are deterministic for a given -seed.
//
// Usage:
//
//	experiments                  # everything, full size (minutes)
//	experiments -only fig1 -n 5000
//	experiments -only fig1 -tsv fig1   # also writes fig1-1a/1b/1c.tsv
//	experiments -only sec31,sec33
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
)

// sections are the names -only accepts, besides "all".
var sections = []string{"fig1", "sec31", "sec32", "sec33"}

func main() {
	var (
		seed = flag.Int64("seed", 1, "RNG seed")
		only = flag.String("only", "all", "comma-separated subset: "+strings.Join(sections, ","))
		n    = flag.Int("n", 20000, "Figure 1 network size")
		tsv  = flag.String("tsv", "", "with fig1, also write PREFIX-1a.tsv, PREFIX-1b.tsv and PREFIX-1c.tsv (empty = none)")
	)
	flag.Parse()
	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		k = strings.TrimSpace(k)
		if k != "all" && !slices.Contains(sections, k) {
			fmt.Fprintf(os.Stderr, "experiments: unknown -only section %q (want all or %s)\n", k, strings.Join(sections, ","))
			os.Exit(2)
		}
		want[k] = true
	}
	all := want["all"]

	if all || want["sec31"] {
		results, err := experiments.Sec31Equivalence(*seed)
		check(err)
		for _, r := range results {
			fmt.Println(r.Table())
		}
		rows, err := experiments.Sec31EarlyStopping(*seed)
		check(err)
		fmt.Println(experiments.Sec31EarlyStopTable(rows))
	}
	if all || want["sec32"] {
		rows, err := experiments.Sec32CheegerSaturation(*seed)
		check(err)
		fmt.Println(experiments.Sec32CheegerTable(rows))
		qn, err := experiments.Sec32QualityNiceness(*seed)
		check(err)
		fmt.Println(qn.Table())
	}
	if all || want["sec33"] {
		rows, err := experiments.Sec33LocalRuntime(*seed)
		check(err)
		fmt.Println(experiments.Sec33LocalityTable(rows))
		ch, err := experiments.Sec33LocalCheeger(*seed)
		check(err)
		fmt.Println(experiments.Sec33CheegerTable(ch))
		mov, err := experiments.Sec33MOVvsPush(*seed)
		check(err)
		fmt.Println(experiments.Sec33MOVTable(mov))
		sd, err := experiments.Sec33SeedNotInCluster(*seed)
		check(err)
		fmt.Println(sd.Table())
	}
	if all || want["fig1"] {
		fmt.Printf("running Figure 1 on a %d-node forest-fire network (this is the long one)...\n\n", *n)
		res, err := experiments.Fig1(experiments.Fig1Config{N: *n, Seed: *seed})
		check(err)
		fmt.Println(res.Fig1aTable())
		fmt.Println(res.Fig1bTable())
		fmt.Println(res.Fig1cTable())
		if *tsv != "" {
			for _, panel := range experiments.Panels {
				path := fmt.Sprintf("%s-%s.tsv", *tsv, panel.Name)
				check(writeTSVFile(path, res, panel.Sel))
				fmt.Printf("wrote %s\n", path)
			}
		}
	}
}

func writeTSVFile(path string, res *experiments.Fig1Result, sel func(experiments.ScatterPoint) float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteTSV(f, res, sel); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
