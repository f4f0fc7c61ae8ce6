package api

import (
	"encoding/json"
	"time"
)

// JobStatus is the lifecycle state of an async job.
type JobStatus string

const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobFailed    JobStatus = "failed"
	JobCancelled JobStatus = "cancelled"
)

// Terminal reports whether the status is final (done, failed or
// cancelled); pollers stop when it is.
func (s JobStatus) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobView is the externally visible snapshot of a job.
type JobView struct {
	ID        string          `json:"id"`
	Type      string          `json:"type"`
	Graph     string          `json:"graph,omitempty"`
	Params    json.RawMessage `json:"params,omitempty"`
	Status    JobStatus       `json:"status"`
	Error     string          `json:"error,omitempty"`
	FromCache bool            `json:"from_cache,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	RunTimeMS float64         `json:"run_time_ms,omitempty"`
	// Progress is the executor-reported completion fraction in [0,1]
	// while the job is running; 1 once it is done. Executors that do
	// not report progress leave it 0.
	Progress float64 `json:"progress,omitempty"`
}

// JobList is the reply of GET /v1/jobs.
type JobList struct {
	Jobs []JobView `json:"jobs"`
}

// JobTypes are the job types registered by default.
var JobTypes = []string{"ncp", "partition"}

// JobSubmitRequest enqueues an async job (POST /v1/jobs) on a stored
// graph. Params is the job type's own params payload (NCPJobParams or
// PartitionJobParams for the built-in types).
type JobSubmitRequest struct {
	Type   string          `json:"type"`
	Graph  string          `json:"graph,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
}

func (r *JobSubmitRequest) Normalize() {}

// Validate checks the shape of the submission; whether the type is
// registered and the graph exists is the server's call.
func (r *JobSubmitRequest) Validate() error {
	if r.Type == "" {
		return Errorf(CodeInvalidArgument, "job type is required").
			WithDetail("types", JobTypes)
	}
	return nil
}

// NewJob builds a JobSubmitRequest from typed params, marshaling them
// into the Params payload.
func NewJob(jobType, graph string, params any) (JobSubmitRequest, error) {
	req := JobSubmitRequest{Type: jobType, Graph: graph}
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			return JobSubmitRequest{}, err
		}
		req.Params = raw
	}
	return req, nil
}

// NCPJobParams parameterizes the "ncp" job type.
type NCPJobParams struct {
	// Method is "spectral", "flow" or "both" (default).
	Method string `json:"method,omitempty"`
	// Seeds per α scale for the spectral profile (default 20).
	Seeds int `json:"seeds,omitempty"`
	// Workers for the profile engines (0 = all CPUs).
	Workers int `json:"workers,omitempty"`
	// BaseSeed drives all sampling (default 1; results are a pure
	// function of the params, so identical submissions cache-hit).
	BaseSeed int64 `json:"base_seed,omitempty"`
}

// Normalize defaults Method to "both" and BaseSeed to 1.
func (p *NCPJobParams) Normalize() {
	if p.Method == "" {
		p.Method = "both"
	}
	if p.BaseSeed == 0 {
		p.BaseSeed = 1
	}
}

func (p *NCPJobParams) Validate() error {
	switch p.Method {
	case "spectral", "flow", "both":
	default:
		return Errorf(CodeInvalidArgument, "ncp method must be spectral|flow|both, got %q", p.Method)
	}
	if p.Seeds < 0 {
		return Errorf(CodeInvalidArgument, "seeds=%d must be >= 0", p.Seeds)
	}
	if p.Workers < 0 {
		return Errorf(CodeInvalidArgument, "workers=%d must be >= 0", p.Workers)
	}
	return nil
}

// EnvelopePoint is one bucket of an NCP minimum-conductance envelope.
type EnvelopePoint struct {
	Size        int     `json:"size"`
	Conductance float64 `json:"conductance"`
}

// ProfileSummary is the serialized form of one NCP profile.
type ProfileSummary struct {
	Clusters int             `json:"clusters"`
	Envelope []EnvelopePoint `json:"envelope"`
}

// NCPJobResult is the "ncp" job's result payload. The graph's name is
// on the job view, not repeated here.
type NCPJobResult struct {
	Nodes    int             `json:"nodes"`
	EdgesM   int             `json:"edges"`
	Spectral *ProfileSummary `json:"spectral,omitempty"`
	Flow     *ProfileSummary `json:"flow,omitempty"`
}

// PartitionJobParams parameterizes the "partition" job type.
type PartitionJobParams struct {
	K int `json:"k"`
	// Seed drives the multilevel matching (default 1).
	Seed int64 `json:"seed,omitempty"`
	// IncludeLabels returns the per-node label vector (can be large).
	IncludeLabels bool `json:"include_labels,omitempty"`
}

// Normalize defaults Seed to 1.
func (p *PartitionJobParams) Normalize() {
	if p.Seed == 0 {
		p.Seed = 1
	}
}

func (p *PartitionJobParams) Validate() error {
	if p.K < 1 {
		return Errorf(CodeInvalidArgument, "partition k must be >= 1, got %d", p.K)
	}
	return nil
}

// PartSummary describes one part of a k-way partition.
type PartSummary struct {
	Label       int     `json:"label"`
	Size        int     `json:"size"`
	Volume      float64 `json:"volume"`
	Conductance float64 `json:"conductance"`
}

// PartitionJobResult is the "partition" job's result payload.
type PartitionJobResult struct {
	K      int           `json:"k"`
	Parts  []PartSummary `json:"parts"`
	MaxPhi float64       `json:"max_conductance"`
	Labels []int         `json:"labels,omitempty"`
}
