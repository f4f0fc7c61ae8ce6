package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the A/A mode judges by.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// exactMetrics are counts made by the program under test; for one seed
// they must read the same on every run.
var exactMetrics = []string{
	"kernel.pushes_per_op", "kernel.work_volume_per_op", "kernel.support_per_op",
	"api.req_bytes_per_op", "api.resp_bytes_per_op",
	"persist.snapshot_bytes_per_edge", "persist.wal_bytes_per_edge",
}

// runAA runs every selected workload n times with the same code, each
// run a fresh process on its own seed (seed, seed+1, …, as the
// acceptance rule does), and prints each end-to-end metric's median,
// quartiles and spread, the spread being the interquartile range as a
// share of the median. It then makes two traced runs on the first seed
// and compares what must repeat exactly. It fails when a spread exceeds
// the metric's bound, a run is incorrect, a count or the reply digest
// differs, or a traced run reports a validity warning.
func runAA(n int, selection string, seed int64, seconds float64, specPath, outDir string) error {
	if n < 2 {
		return errors.New("-aa needs at least 2 runs")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	names := strings.Split(selection, ",")
	if selection == "all" || selection == "" {
		names = workloadNames
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(workload string, seed int64, trace int) (*result, *summary, error) {
		cmd := exec.Command(self,
			"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, nil, fmt.Errorf("%s: last line of output: %w", workload, err)
		}
		body, err := os.ReadFile(summaryPath(outDir, workload, trace == 1))
		if err != nil {
			return nil, nil, err
		}
		var sum summary
		if err := json.Unmarshal(body, &sum); err != nil {
			return nil, nil, err
		}
		return &res, &sum, nil
	}

	var problems []string
	fmt.Printf("%-14s %-18s %12s %12s %12s %8s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "spread", "max dev", "bound")
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, _, err := child(name, seed+int64(i), 0)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed > 0 {
				problems = append(problems, fmt.Sprintf("%s seed %d: incorrect, or %d of %d ops failed", name, seed+int64(i), res.Failed, res.Attempted))
			}
			for metric, mv := range res.Metrics {
				values[metric] = append(values[metric], mv.Value)
			}
		}
		for _, ms := range spec.EndToEnd {
			xs := values[ms.Name]
			if len(xs) != n {
				return fmt.Errorf("%s: %d values of %s in %d runs", name, len(xs), ms.Name, n)
			}
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			fmt.Printf("%-14s %-18s %12.6g %12.6g %12.6g %8.4f %8.4f %8.4f\n", name, ms.Name, q2, q1, q3, spread, (hi-lo)/q2, ms.Bound)
			// setup_s is judged on its median only.
			if spread > ms.Bound && ms.Name != "setup_s" {
				problems = append(problems, fmt.Sprintf("%s %s: spread %.4f exceeds bound %.4f", name, ms.Name, spread, ms.Bound))
			}
		}

		a, asum, err := child(name, seed, 1)
		if err != nil {
			return err
		}
		b, bsum, err := child(name, seed, 1)
		if err != nil {
			return err
		}
		if asum.RespDigest != bsum.RespDigest {
			problems = append(problems, fmt.Sprintf("%s: resp_digest differs between two runs of seed %d", name, seed))
		}
		for _, metric := range exactMetrics {
			if x, y := a.Metrics[metric].Value, b.Metrics[metric].Value; x != y {
				problems = append(problems, fmt.Sprintf("%s %s: %v then %v on the same seed", name, metric, x, y))
			}
		}
		for _, w := range append(asum.Warnings, bsum.Warnings...) {
			problems = append(problems, name+": "+w)
		}
	}
	for _, p := range problems {
		fmt.Println("FAIL", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("A/A: %d problem(s)", len(problems))
	}
	fmt.Println("A/A: every spread within its bound, exact counts and digests repeat")
	return nil
}
