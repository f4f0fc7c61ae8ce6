package api

import "math"

// NodeMass is one (node, value) entry of a sparse or dense distribution.
type NodeMass struct {
	Node int     `json:"node"`
	Mass float64 `json:"mass"`
}

// SweepInfo reports a sweep cut over a diffusion vector.
type SweepInfo struct {
	Set         []int   `json:"set"`
	Size        int     `json:"size"`
	Conductance float64 `json:"conductance"`
	Prefix      int     `json:"prefix"`
}

// PPRRequest parameterizes the ACL push endpoint
// (POST /v1/graphs/{name}/ppr).
type PPRRequest struct {
	Seeds []int   `json:"seeds"`
	Alpha float64 `json:"alpha"`
	Eps   float64 `json:"eps"`
	TopK  int     `json:"topk,omitempty"`
	Sweep bool    `json:"sweep,omitempty"`
}

// Normalize defaults Alpha to 0.15, Eps to 1e-4 and TopK to 100.
func (r *PPRRequest) Normalize() {
	if r.Alpha == 0 {
		r.Alpha = 0.15
	}
	if r.Eps == 0 {
		r.Eps = 1e-4
	}
	if r.TopK == 0 {
		r.TopK = 100
	}
}

func (r *PPRRequest) Validate() error {
	if err := validSeeds(r.Seeds); err != nil {
		return err
	}
	if r.Alpha <= 0 || r.Alpha >= 1 {
		return Errorf(CodeInvalidArgument, "alpha=%v outside (0,1)", r.Alpha)
	}
	if r.Eps <= 0 || math.IsNaN(r.Eps) {
		return Errorf(CodeInvalidArgument, "eps=%v must be positive", r.Eps)
	}
	if r.TopK < 0 {
		return Errorf(CodeInvalidArgument, "topk=%d must be >= 0", r.TopK)
	}
	return nil
}

// PPRResponse is the PPR endpoint's reply.
type PPRResponse struct {
	Support    int        `json:"support"`
	Sum        float64    `json:"sum"`
	Pushes     int        `json:"pushes"`
	WorkVolume float64    `json:"work_volume"`
	Top        []NodeMass `json:"top"`
	Sweep      *SweepInfo `json:"sweep,omitempty"`
	// Work carries the kernel's full work accounting when the request
	// asked for it with ?debug=work.
	Work *WorkStats `json:"work,omitempty"`
}

// LocalClusterMethods are the accepted LocalClusterRequest.Method values.
var LocalClusterMethods = []string{"ppr", "nibble", "heat"}

// LocalClusterRequest selects one of the strongly-local clustering
// methods and its budget knobs (POST /v1/graphs/{name}/localcluster).
type LocalClusterRequest struct {
	// Method is "ppr" (ACL push + sweep, default), "nibble"
	// (Spielman–Teng truncated walk) or "heat" (local heat kernel).
	Method string  `json:"method,omitempty"`
	Seeds  []int   `json:"seeds"`
	Alpha  float64 `json:"alpha,omitempty"` // ppr teleportation
	Eps    float64 `json:"eps,omitempty"`   // truncation threshold (all methods)
	Steps  int     `json:"steps,omitempty"` // nibble walk steps
	T      float64 `json:"t,omitempty"`     // heat-kernel time
}

// Normalize defaults Method to "ppr", Alpha to 0.15, Eps to 1e-4, Steps
// to 20 and T to 5.
func (r *LocalClusterRequest) Normalize() {
	if r.Method == "" {
		r.Method = "ppr"
	}
	if r.Alpha == 0 {
		r.Alpha = 0.15
	}
	if r.Eps == 0 {
		r.Eps = 1e-4
	}
	if r.Steps == 0 {
		r.Steps = 20
	}
	if r.T == 0 {
		r.T = 5
	}
}

func (r *LocalClusterRequest) Validate() error {
	switch r.Method {
	case "ppr", "nibble", "heat":
	default:
		return Errorf(CodeInvalidArgument, "method must be ppr|nibble|heat, got %q", r.Method).
			WithDetail("methods", LocalClusterMethods)
	}
	if err := validSeeds(r.Seeds); err != nil {
		return err
	}
	if r.Alpha <= 0 || r.Alpha >= 1 {
		return Errorf(CodeInvalidArgument, "alpha=%v outside (0,1)", r.Alpha)
	}
	if r.Eps <= 0 || math.IsNaN(r.Eps) {
		return Errorf(CodeInvalidArgument, "eps=%v must be positive", r.Eps)
	}
	if r.Steps < 1 {
		return Errorf(CodeInvalidArgument, "steps=%d must be >= 1", r.Steps)
	}
	if err := validHeatT(r.T); err != nil {
		return err
	}
	return nil
}

// LocalClusterResponse is the local-cluster endpoint's reply.
type LocalClusterResponse struct {
	Method      string  `json:"method"`
	Set         []int   `json:"set"`
	Size        int     `json:"size"`
	Conductance float64 `json:"conductance"`
	Volume      float64 `json:"volume"`
	Support     int     `json:"support"` // max support touched: the locality measure
	// Work carries the kernel's full work accounting when the request
	// asked for it with ?debug=work.
	Work *WorkStats `json:"work,omitempty"`
}

// DiffuseKinds are the accepted DiffuseRequest.Kind values.
var DiffuseKinds = []string{"heat", "ppr", "lazy"}

// DiffuseRequest parameterizes the dense diffusion endpoint (heat
// kernel, PageRank, lazy random walk; POST /v1/graphs/{name}/diffuse).
type DiffuseRequest struct {
	// Kind is "heat" (default), "ppr" or "lazy".
	Kind  string  `json:"kind,omitempty"`
	Seeds []int   `json:"seeds"`
	T     float64 `json:"t,omitempty"`     // heat time
	Gamma float64 `json:"gamma,omitempty"` // ppr teleportation
	Alpha float64 `json:"alpha,omitempty"` // lazy-walk laziness (0 or omitted: 0.5)
	K     int     `json:"k,omitempty"`     // lazy-walk steps
	TopK  int     `json:"topk,omitempty"`
}

// Normalize defaults Kind to "heat", T to 3, Gamma to 0.15, Alpha to
// 0.5, K to 10 and TopK to 100.
func (r *DiffuseRequest) Normalize() {
	if r.Kind == "" {
		r.Kind = "heat"
	}
	if r.T == 0 {
		r.T = 3
	}
	if r.Gamma == 0 {
		r.Gamma = 0.15
	}
	if r.Alpha == 0 {
		r.Alpha = 0.5
	}
	if r.K == 0 {
		r.K = 10
	}
	if r.TopK == 0 {
		r.TopK = 100
	}
}

func (r *DiffuseRequest) Validate() error {
	switch r.Kind {
	case "heat", "ppr", "lazy":
	default:
		return Errorf(CodeInvalidArgument, "kind must be heat|ppr|lazy, got %q", r.Kind).
			WithDetail("kinds", DiffuseKinds)
	}
	if err := validSeeds(r.Seeds); err != nil {
		return err
	}
	if err := validHeatT(r.T); err != nil {
		return err
	}
	if r.Gamma <= 0 || r.Gamma >= 1 {
		return Errorf(CodeInvalidArgument, "gamma=%v outside (0,1)", r.Gamma)
	}
	if !(r.Alpha >= 0 && r.Alpha <= 1) {
		return Errorf(CodeInvalidArgument, "alpha=%v outside [0,1]", r.Alpha)
	}
	if r.K < 1 {
		return Errorf(CodeInvalidArgument, "k=%d must be >= 1", r.K)
	}
	if r.TopK < 0 {
		return Errorf(CodeInvalidArgument, "topk=%d must be >= 0", r.TopK)
	}
	return nil
}

// DiffuseResponse is the diffusion endpoint's reply.
type DiffuseResponse struct {
	Kind string     `json:"kind"`
	Sum  float64    `json:"sum"`
	Top  []NodeMass `json:"top"`
	// Work carries coarse work accounting (dense diffusions touch the
	// whole graph) when the request asked for it with ?debug=work.
	Work *WorkStats `json:"work,omitempty"`
}

// SweepCutRequest carries a caller-provided vector to sweep
// (POST /v1/graphs/{name}/sweepcut).
type SweepCutRequest struct {
	Values []NodeMass `json:"values"`
}

func (r *SweepCutRequest) Normalize() {}

func (r *SweepCutRequest) Validate() error {
	if len(r.Values) == 0 {
		return Errorf(CodeInvalidArgument, "sweepcut needs a nonempty values vector")
	}
	for _, nm := range r.Values {
		if nm.Node < 0 {
			return Errorf(CodeInvalidArgument, "node %d is negative", nm.Node)
		}
		if math.IsNaN(nm.Mass) || math.IsInf(nm.Mass, 0) {
			return Errorf(CodeInvalidArgument, "node %d has non-finite mass", nm.Node)
		}
	}
	return nil
}
