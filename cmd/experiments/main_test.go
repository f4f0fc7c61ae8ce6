package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestWriteTSV(t *testing.T) {
	res := &experiments.Fig1Result{
		Spectral: []experiments.ScatterPoint{{Size: 40, Conductance: 0.1}, {Size: 10, Conductance: 0.3}, {Size: 20, Conductance: 0.2}},
		Flow:     []experiments.ScatterPoint{{Size: 1000000, Conductance: 0.05}, {Size: 30, Conductance: 0.15}},
	}
	var b strings.Builder
	if err := writeTSV(&b, res, func(p experiments.ScatterPoint) float64 { return p.Conductance }); err != nil {
		t.Fatal(err)
	}
	want := "series\tx\ty\n" +
		"spectral (LocalSpectral)\t10\t0.3\n" +
		"spectral (LocalSpectral)\t20\t0.2\n" +
		"spectral (LocalSpectral)\t40\t0.1\n" +
		"flow (Metis+MQI)\t30\t0.15\n" +
		"flow (Metis+MQI)\t1e+06\t0.05\n"
	if got := b.String(); got != want {
		t.Errorf("writeTSV:\n%s\nwant:\n%s", got, want)
	}
	if res.Spectral[0].Size != 40 {
		t.Error("writeTSV reordered the caller's points")
	}
}
