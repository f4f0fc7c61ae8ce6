package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gstore"
	"repro/internal/ncp"
	"repro/internal/partition"
	"repro/pkg/api"
)

// RegisterDefaultJobs installs the built-in job types on a JobManager:
//
//	ncp        — spectral and/or flow Network Community Profile
//	partition  — k-way recursive multilevel bisection
//
// Both run on a stored graph. The params and result payloads are the api.*JobParams / api.*JobResult
// wire types. Every executor defaults its seed so results are
// deterministic for a given params payload, which is what makes
// job-result caching sound.
func RegisterDefaultJobs(m *JobManager) {
	m.Register("ncp", runNCPJob)
	m.Register("partition", runPartitionJob)
}

// decodeParams strict-decodes a job's raw params into p, then runs the
// shared Normalize/Validate pipeline — the same contract handler-side
// requests go through.
func decodeParams(raw json.RawMessage, p api.Request) error {
	if err := strictUnmarshal(raw, p); err != nil {
		return err
	}
	p.Normalize()
	return p.Validate()
}

func runNCPJob(ctx context.Context, g gstore.Graph, raw json.RawMessage, report ProgressFunc) (any, error) {
	var p api.NCPJobParams
	if err := decodeParams(raw, &p); err != nil {
		return nil, err
	}
	res := &api.NCPJobResult{Nodes: g.N(), EdgesM: g.M()}
	rng := rand.New(rand.NewSource(p.BaseSeed))
	// "both" splits the progress bar evenly: spectral fills [0, 0.5),
	// flow [0.5, 1). A single-method job owns the whole range.
	mid := 1.0
	if p.Method == "both" {
		mid = 0.5
	}
	if p.Method != "flow" {
		prof, err := ncp.SpectralProfileOn(ctx, g, ncp.SpectralConfig{
			Seeds: p.Seeds, Workers: p.Workers, BaseSeed: p.BaseSeed,
			OnProgress: progressRange(report, 0, mid),
		}, rng)
		if err != nil {
			return nil, err
		}
		res.Spectral = summarizeProfile(prof)
	}
	if p.Method != "spectral" {
		hg, err := gstore.Materialize(g)
		if err != nil {
			return nil, err
		}
		prof, err := ncp.FlowProfileCtx(ctx, hg, ncp.FlowConfig{
			Workers: p.Workers, BaseSeed: p.BaseSeed,
			OnProgress: progressRange(report, 1-mid, 1),
		}, rng)
		if err != nil {
			return nil, err
		}
		res.Flow = summarizeProfile(prof)
	}
	return res, nil
}

// progressRange adapts a (done, total) counting hook onto a fraction of
// the job's [0,1] progress range: as done goes 0→total, the reported
// fraction sweeps lo→hi.
func progressRange(report ProgressFunc, lo, hi float64) func(done, total int) {
	return func(done, total int) {
		if total <= 0 {
			return
		}
		report(lo + (hi-lo)*float64(done)/float64(total))
	}
}

func summarizeProfile(p *ncp.Profile) *api.ProfileSummary {
	s := &api.ProfileSummary{Clusters: len(p.Clusters)}
	for _, pt := range p.MinEnvelope() {
		s.Envelope = append(s.Envelope, api.EnvelopePoint{Size: pt.Size, Conductance: pt.Conductance})
	}
	return s
}

func runPartitionJob(ctx context.Context, sg gstore.Graph, raw json.RawMessage, report ProgressFunc) (any, error) {
	var p api.PartitionJobParams
	if err := decodeParams(raw, &p); err != nil {
		return nil, err
	}
	g, err := gstore.Materialize(sg)
	if err != nil {
		return nil, err
	}
	labels, err := partition.RecursiveBisectCtx(ctx, g, p.K, partition.MultilevelOptions{
		Seed:       p.Seed,
		OnProgress: progressRange(report, 0, 1),
	})
	if err != nil {
		return nil, err
	}
	res := &api.PartitionJobResult{K: p.K}
	for _, set := range partition.PartSets(labels) {
		inS := g.Membership(set)
		phi := g.Conductance(inS)
		if math.IsInf(phi, 1) {
			phi = -1 // whole-graph part: no cut to normalize
		}
		res.Parts = append(res.Parts, api.PartSummary{
			Label: len(res.Parts), Size: len(set),
			Volume: g.VolumeOf(inS), Conductance: phi,
		})
		if phi > res.MaxPhi {
			res.MaxPhi = phi
		}
	}
	if p.IncludeLabels {
		res.Labels = labels
	}
	return res, nil
}

// strictUnmarshal decodes params by api.UnmarshalStrict, so typos in
// knob names and bytes after the value fail the request instead of
// silently running defaults. A request type with its own DecodeJSON
// (pkg/api/codec.go) decodes itself, as that decode would.
func strictUnmarshal(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	var err error
	if d, ok := v.(interface{ DecodeJSON([]byte) error }); ok {
		err = d.DecodeJSON(raw)
	} else {
		err = api.UnmarshalStrict(raw, v)
	}
	if err != nil {
		return fmt.Errorf("params: %w", err)
	}
	return nil
}
