package api

// Batch queries run one independent single-seed diffusion per entry of
// Seeds — unlike PPRRequest.Seeds, which is one seed *set* for one
// diffusion. graphd computes each seed with the single-seed endpoint's
// own code, so every per-seed result is byte-identical to that
// endpoint's reply for `{"seeds":[s]}` with the same parameters; the
// batch merely spreads the seeds over the query workers and amortizes
// per-request overhead.

// MaxBatchSeeds bounds the number of diffusions one batch request may
// carry; larger fan-outs should be split client-side so a single
// request cannot monopolize the query workers.
const MaxBatchSeeds = 1024

// PPRBatchRequest parameterizes the batched ACL push endpoint
// (POST /v1/graphs/{name}/ppr:batch).
type PPRBatchRequest struct {
	// Seeds holds one seed per diffusion: K entries → K independent
	// single-seed PPR vectors. Duplicates are allowed and produce
	// identical results.
	Seeds []int   `json:"seeds"`
	Alpha float64 `json:"alpha"`
	Eps   float64 `json:"eps"`
	TopK  int     `json:"topk,omitempty"`
	Sweep bool    `json:"sweep,omitempty"`
}

// Normalize applies the single-seed ppr defaults, so a batched seed
// answers exactly like a lone one.
func (r *PPRBatchRequest) Normalize() { (*PPRRequest)(r).Normalize() }

// Validate checks the request as its single-seed twin, and the batch's
// size.
func (r *PPRBatchRequest) Validate() error {
	if err := (*PPRRequest)(r).Validate(); err != nil {
		return err
	}
	return validBatchSize(r.Seeds)
}

// validBatchSize refuses a batch of more than MaxBatchSeeds seeds.
func validBatchSize(seeds []int) error {
	if len(seeds) > MaxBatchSeeds {
		return Errorf(CodeInvalidArgument, "batch of %d seeds exceeds the %d-seed limit", len(seeds), MaxBatchSeeds)
	}
	return nil
}

// PPRBatchResult is one seed's slice of a batch reply; its fields
// mirror PPRResponse for the single-seed request {"seeds":[seed]}.
type PPRBatchResult struct {
	Seed       int        `json:"seed"`
	Support    int        `json:"support"`
	Sum        float64    `json:"sum"`
	Pushes     int        `json:"pushes"`
	WorkVolume float64    `json:"work_volume"`
	Top        []NodeMass `json:"top"`
	Sweep      *SweepInfo `json:"sweep,omitempty"`
}

// PPRBatchResponse is the batched PPR endpoint's reply: one result per
// requested seed, in request order.
type PPRBatchResponse struct {
	Results []PPRBatchResult `json:"results"`
	// TotalWork is Σ deg(u) over push operations across all seeds.
	TotalWork float64 `json:"total_work"`
	// Work aggregates the kernel's work accounting across the batch
	// when the request asked for it with ?debug=work.
	Work *WorkStats `json:"work,omitempty"`
}

// LocalClusterBatchRequest parameterizes the batched local-cluster
// endpoint (POST /v1/graphs/{name}/localcluster:batch). Method and the
// budget knobs are shared by every seed.
type LocalClusterBatchRequest struct {
	// Method is "ppr" (default), "nibble" or "heat".
	Method string `json:"method,omitempty"`
	// Seeds holds one seed per clustering: K entries → K independent
	// single-seed local clusters.
	Seeds []int   `json:"seeds"`
	Alpha float64 `json:"alpha,omitempty"` // ppr teleportation
	Eps   float64 `json:"eps,omitempty"`   // truncation threshold (all methods)
	Steps int     `json:"steps,omitempty"` // nibble walk steps
	T     float64 `json:"t,omitempty"`     // heat-kernel time
}

// Normalize applies the single-seed localcluster defaults.
func (r *LocalClusterBatchRequest) Normalize() { (*LocalClusterRequest)(r).Normalize() }

// Validate checks the request as its single-seed twin, and the batch's
// size.
func (r *LocalClusterBatchRequest) Validate() error {
	if err := (*LocalClusterRequest)(r).Validate(); err != nil {
		return err
	}
	return validBatchSize(r.Seeds)
}

// LocalClusterBatchResult is one seed's cluster; its fields mirror
// LocalClusterResponse for the single-seed request {"seeds":[seed]}.
type LocalClusterBatchResult struct {
	Seed        int     `json:"seed"`
	Set         []int   `json:"set"`
	Size        int     `json:"size"`
	Conductance float64 `json:"conductance"`
	Volume      float64 `json:"volume"`
	Support     int     `json:"support"`
}

// LocalClusterBatchResponse is the batched local-cluster endpoint's
// reply: one result per requested seed, in request order.
type LocalClusterBatchResponse struct {
	Method  string                    `json:"method"`
	Results []LocalClusterBatchResult `json:"results"`
	// Work aggregates the kernel's work accounting across the batch
	// when the request asked for it with ?debug=work.
	Work *WorkStats `json:"work,omitempty"`
}
