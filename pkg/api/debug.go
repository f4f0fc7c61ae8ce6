package api

import "time"

// WorkStats is the wire form of kernel.Stats: the work accounting the
// paper is about (pushes, work volume Σ deg(u), support touched),
// exposed on query responses when the caller asks for it with
// ?debug=work. Fields that a method does not produce are zero and
// omitted from the JSON.
type WorkStats struct {
	// Method names the diffusion that produced the stats: "push",
	// "nibble", "heat", or "dense-<kind>" for the dense endpoint.
	Method string `json:"method"`
	// Pushes counts ACL push operations.
	Pushes int `json:"pushes,omitempty"`
	// WorkVolume is Σ deg(u) over processed nodes — the quantity the
	// work-proportional-to-output bound is stated in.
	WorkVolume float64 `json:"work_volume,omitempty"`
	// Steps counts truncated-walk steps (nibble).
	Steps int `json:"steps,omitempty"`
	// Terms counts Taylor terms evaluated (heat kernel).
	Terms int `json:"terms,omitempty"`
	// MaxSupport is the peak number of nonzero entries touched.
	MaxSupport int `json:"max_support,omitempty"`
}

// DebugQuery is one completed query as retained by the server's
// in-memory trace ring (GET /debug/queries). Newest first in the
// response.
type DebugQuery struct {
	// ID is the request ID (X-Request-Id) of the query.
	ID string `json:"id"`
	// Route is the matched route pattern, e.g.
	// "POST /v1/graphs/{name}/ppr".
	Route string `json:"route"`
	// Graph is the target graph name.
	Graph string `json:"graph,omitempty"`
	// Params is the digest of the params the cache is keyed by: the
	// request after Normalize as its type marshals it (members in field
	// order, not sorted by key), capped at 256 bytes.
	Params string `json:"params,omitempty"`
	// Status is the HTTP status written.
	Status int `json:"status"`
	// Cache is the X-Graphd-Cache outcome: "hit", "shared" or "miss".
	Cache string `json:"cache,omitempty"`
	// DurationMS is the wall time from dispatch to response written.
	DurationMS float64 `json:"duration_ms"`
	// Work is the diffusion work accounting, when the computation
	// produced one.
	Work *WorkStats `json:"work,omitempty"`
	// Time is when the query completed.
	Time time.Time `json:"time"`
}

// DebugQueriesResponse is the reply of GET /debug/queries.
type DebugQueriesResponse struct {
	Queries []DebugQuery `json:"queries"`
}
