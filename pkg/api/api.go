// Package api defines the versioned wire contract of the graphd HTTP
// service: every request and response body, the structured error
// envelope, and the graph/job state enums. The graphd server
// (internal/service), the Go SDK (pkg/client) and the graphctl CLI all
// compile against these types, so a payload that round-trips through one
// of them round-trips through all of them.
//
// Conventions:
//
//   - Every request type implements Request: Normalize fills documented
//     defaults in place, Validate checks everything that can be checked
//     without the target graph and returns an *Error with a
//     machine-readable code. Servers run both after decoding; clients
//     may run them before sending to fail fast.
//   - Errors travel as {"error":{"code","message","details"}} with the
//     codes in this package. Clients must branch on Code, not Message.
//   - All endpoints live under the /v1 prefix; Version names it.
//
// docs/api.md is the endpoint-by-endpoint reference derived from these
// types.
package api

import "math"

// Version is the API version prefix every route lives under.
const Version = "v1"

// Request is the contract every v1 request body implements.
type Request interface {
	// Normalize fills zero-valued optional fields with their documented
	// defaults, in place. It is idempotent.
	Normalize()
	// Validate reports the first graph-independent problem with the
	// request as an *Error (code invalid_argument), or nil.
	Validate() error
}

// MaxHeatT is the largest heat-kernel time t a request may ask for.
// e^t overflows float64 at t ≈ 709.78 and e^{−t} goes subnormal past
// t ≈ 708.4, so beyond this bound the series' weights, not the graph,
// would decide the answer.
const MaxHeatT = 700

// validHeatT is the shared heat-kernel time check.
func validHeatT(t float64) error {
	if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return Errorf(CodeInvalidArgument, "t=%v must be positive and finite", t)
	}
	if t > MaxHeatT {
		return Errorf(CodeInvalidArgument, "t=%v exceeds %d, the largest heat-kernel time served", t, MaxHeatT)
	}
	return nil
}

// validSeeds is the shared seed-set check: nonempty, no negative ids.
// Upper-bound checks need the target graph and happen server-side.
func validSeeds(seeds []int) error {
	if len(seeds) == 0 {
		return Errorf(CodeInvalidArgument, "seeds must be a nonempty list of node ids")
	}
	for _, u := range seeds {
		if u < 0 {
			return Errorf(CodeInvalidArgument, "seed %d is negative", u)
		}
	}
	return nil
}
