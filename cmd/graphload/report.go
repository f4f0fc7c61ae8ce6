package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// loadConfig echoes the run's knobs into the report so it is
// self-describing: a human comparing two reports can see whether the
// offered load actually matched.
type loadConfig struct {
	Server      string  `json:"server"`
	Graph       string  `json:"graph"`
	Nodes       int     `json:"nodes"`
	Mix         string  `json:"mix"`
	Rate        float64 `json:"rate"`
	Duration    string  `json:"duration"`
	Warmup      string  `json:"warmup"`
	MaxInflight int     `json:"max_inflight"`
	Seed        int64   `json:"seed"`
}

type latencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

type loadMetrics struct {
	Requests  uint64         `json:"requests"`
	Errors    uint64         `json:"errors"`
	Dropped   uint64         `json:"dropped"`
	QPS       float64        `json:"qps"`
	ErrorRate float64        `json:"error_rate"`
	LatencyMS latencySummary `json:"latency_ms"`
}

type report struct {
	Kind    string      `json:"kind"` // always "graphload"
	Config  loadConfig  `json:"config"`
	Metrics loadMetrics `json:"metrics"`
}

func round3(v float64) float64 { return math.Round(v*1e3) / 1e3 }
func round5(v float64) float64 { return math.Round(v*1e5) / 1e5 }

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printSummary(w io.Writer, rep report) {
	m := rep.Metrics
	fmt.Fprintf(w, "graphload: %s on %q (%d nodes), mix %s, offered %.0f req/s\n",
		rep.Config.Server, rep.Config.Graph, rep.Config.Nodes, rep.Config.Mix, rep.Config.Rate)
	fmt.Fprintf(w, "  requests   %d (errors %d, dropped %d, error rate %.3f%%)\n",
		m.Requests, m.Errors, m.Dropped, m.ErrorRate*100)
	fmt.Fprintf(w, "  achieved   %.1f qps over the measurement window\n", m.QPS)
	fmt.Fprintf(w, "  latency ms p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f mean=%.3f max=%.3f\n",
		m.LatencyMS.P50, m.LatencyMS.P90, m.LatencyMS.P99, m.LatencyMS.P999, m.LatencyMS.Mean, m.LatencyMS.Max)
}
