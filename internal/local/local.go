// Package local is what remains of the §3.3 local-partitioning layer:
// the diffusions, their sweeps and the map-based conveniences now live
// in internal/kernel (the MOV program in internal/experiments), and
// graphd calls the kernel directly. WorkspaceSweepCut is kept only
// because bench/ calls it; it and this package go in the benchmark's
// own change, ROADMAP item 1.
package local

import (
	"errors"

	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/partition"
)

// WorkspaceSweepCut is the best sweep cut of ws's output plane: the
// kernel's workspace sweep (SweepOrderP, SweepBest, SweepNodes), the one
// graphd's ppr replies run.
func WorkspaceSweepCut(g gstore.Graph, ws *kernel.Workspace) (*partition.SweepResult, error) {
	ws.SweepOrderP(g)
	prefix, phi := ws.SweepBest(g)
	if prefix == 0 {
		return nil, errors.New("local: no sweep cut")
	}
	return &partition.SweepResult{Set: ws.SweepNodes(make([]int, 0, prefix), prefix), Conductance: phi, Prefix: prefix}, nil
}
