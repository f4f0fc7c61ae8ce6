package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"sort"

	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/local"
	"repro/pkg/api"
)

// decodeRequest is the handler's request pipeline on a body: decode
// rejecting unknown fields, fill defaults, validate.
func decodeRequest(body []byte, into api.Request) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	into.Normalize()
	return into.Validate()
}

// workTotals sums kernel.Stats over the replayed diffusions. The sums
// are exact and must repeat for a seed.
type workTotals struct {
	pushes     int
	workVolume float64
	support    int
}

func (w *workTotals) add(st kernel.Stats) {
	w.pushes += st.Pushes
	w.workVolume += st.WorkVolume
	w.support += st.MaxSupport
}

// verifier compares the daemon's replies, bit for bit, with direct
// in-process kernel calls on the same graph, and digests the replies so
// two runs of one seed can be told to have answered identically.
type verifier struct {
	h       hash.Hash
	replies int
}

func newVerifier() *verifier { return &verifier{h: sha256.New()} }

func (v *verifier) digest() string { return hex.EncodeToString(v.h.Sum(nil)) }

func (v *verifier) absorb(reply any) error {
	body, err := json.Marshal(reply)
	if err != nil {
		return err
	}
	v.h.Write(body)
	v.replies++
	return nil
}

// pprReply is what the single-seed and the batched replies share.
type pprReply struct {
	support    int
	sum        float64
	pushes     int
	workVolume float64
	top        []api.NodeMass
	sweep      *api.SweepInfo
}

// matches checks a reply against the workspace a direct diffusion left
// behind and that diffusion's stats.
func (r pprReply) matches(g gstore.Graph, ws *kernel.Workspace, st kernel.Stats, topK int, sweep bool) error {
	if r.support != ws.PSupport() || r.pushes != st.Pushes {
		return fmt.Errorf("support/pushes %d/%d, kernel says %d/%d", r.support, r.pushes, ws.PSupport(), st.Pushes)
	}
	if math.Float64bits(r.sum) != math.Float64bits(ws.PSum()) || math.Float64bits(r.workVolume) != math.Float64bits(st.WorkVolume) {
		return fmt.Errorf("sum/work volume %v/%v, kernel says %v/%v", r.sum, r.workVolume, ws.PSum(), st.WorkVolume)
	}
	want := make([]api.NodeMass, 0, ws.PSupport())
	ws.ForEachP(func(u int, x float64) { want = append(want, api.NodeMass{Node: u, Mass: x}) })
	sort.Slice(want, func(i, j int) bool {
		if want[i].Mass != want[j].Mass {
			return want[i].Mass > want[j].Mass
		}
		return want[i].Node < want[j].Node
	})
	if topK > 0 && len(want) > topK {
		want = want[:topK]
	}
	if len(r.top) != len(want) {
		return fmt.Errorf("top has %d entries, want %d", len(r.top), len(want))
	}
	for i, nm := range r.top {
		if nm.Node != want[i].Node || math.Float64bits(nm.Mass) != math.Float64bits(want[i].Mass) {
			return fmt.Errorf("top[%d] = %+v, kernel says %+v", i, nm, want[i])
		}
	}
	if !sweep {
		if r.sweep != nil {
			return errors.New("unrequested sweep in reply")
		}
		return nil
	}
	cut, err := local.WorkspaceSweepCut(g, ws)
	if err != nil {
		return err
	}
	if r.sweep == nil || r.sweep.Prefix != cut.Prefix || len(r.sweep.Set) != len(cut.Set) ||
		math.Float64bits(r.sweep.Conductance) != math.Float64bits(cut.Conductance) {
		return fmt.Errorf("sweep %+v, local says prefix %d conductance %v", r.sweep, cut.Prefix, cut.Conductance)
	}
	return nil
}

// ppr verifies one single-seed reply.
func (v *verifier) ppr(g gstore.Graph, pool *kernel.Pool, req api.PPRRequest, resp *api.PPRResponse) error {
	if err := v.absorb(resp); err != nil {
		return err
	}
	req.Normalize()
	ws := pool.Get()
	defer pool.Put(ws)
	st, err := pushOf(req).Diffuse(g, ws, req.Seeds)
	if err != nil {
		return err
	}
	got := pprReply{resp.Support, resp.Sum, resp.Pushes, resp.WorkVolume, resp.Top, resp.Sweep}
	if err := got.matches(g, ws, st, req.TopK, req.Sweep); err != nil {
		return fmt.Errorf("ppr seeds %v: %w", req.Seeds, err)
	}
	return nil
}

// batch verifies one ppr:batch reply against the batch engine.
func (v *verifier) batch(ctx context.Context, g gstore.Graph, pool *kernel.Pool, req api.PPRBatchRequest, resp *api.PPRBatchResponse) error {
	if err := v.absorb(resp); err != nil {
		return err
	}
	req.Normalize()
	bd := kernel.BatchDiffuser{Method: kernel.PushACL{Alpha: req.Alpha, Eps: req.Eps}}
	_, err := bd.Run(ctx, g, pool, req.Seeds, func(i int, ws *kernel.Workspace, st kernel.Stats) error {
		r := resp.Results[i]
		if r.Seed != req.Seeds[i] {
			return fmt.Errorf("result %d is for seed %d, want %d", i, r.Seed, req.Seeds[i])
		}
		got := pprReply{r.Support, r.Sum, r.Pushes, r.WorkVolume, r.Top, r.Sweep}
		if err := got.matches(g, ws, st, req.TopK, req.Sweep); err != nil {
			return fmt.Errorf("batch seed %d: %w", r.Seed, err)
		}
		return nil
	})
	return err
}
