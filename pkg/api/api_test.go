package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

func TestErrorEnvelopeRoundTrip(t *testing.T) {
	in := ErrorEnvelope{Error: Errorf(CodeNotFound, "graph %q not found", "g").
		WithDetail("name", "g")}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out ErrorEnvelope
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Error.Code != CodeNotFound || out.Error.Message != `graph "g" not found` {
		t.Fatalf("round trip: %+v", out.Error)
	}
	if out.Error.Details["name"] != "g" {
		t.Fatalf("details lost: %+v", out.Error.Details)
	}
}

func TestIsCodeUnwraps(t *testing.T) {
	err := fmt.Errorf("call failed: %w", Errorf(CodeConflict, "busy"))
	if !IsCode(err, CodeConflict) || !IsConflict(err) {
		t.Fatal("IsCode should see through wrapping")
	}
	if IsNotFound(err) || IsCode(errors.New("plain"), CodeConflict) {
		t.Fatal("IsCode matched the wrong error")
	}
}

func TestCodeStatusMapping(t *testing.T) {
	for _, c := range []ErrorCode{
		CodeInvalidArgument, CodeNotFound, CodeConflict,
		CodeUnsupportedMediaType, CodeDeadlineExceeded, CodeCancelled,
		CodeInternal, CodeUnavailable,
	} {
		if got := CodeForStatus(c.HTTPStatus()); got != c {
			t.Errorf("CodeForStatus(%d) = %s, want %s", c.HTTPStatus(), got, c)
		}
	}
}

func TestRequestNormalizeAndValidate(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"ppr defaults", &PPRRequest{Seeds: []int{0}}, true},
		{"ppr no seeds", &PPRRequest{}, false},
		{"ppr negative seed", &PPRRequest{Seeds: []int{-1}}, false},
		{"ppr alpha high", &PPRRequest{Seeds: []int{0}, Alpha: 2}, false},
		{"ppr eps negative", &PPRRequest{Seeds: []int{0}, Eps: -1}, false},
		{"localcluster defaults", &LocalClusterRequest{Seeds: []int{3}}, true},
		{"localcluster bad method", &LocalClusterRequest{Seeds: []int{3}, Method: "magic"}, false},
		{"diffuse defaults", &DiffuseRequest{Seeds: []int{1}}, true},
		{"diffuse bad kind", &DiffuseRequest{Seeds: []int{1}, Kind: "x"}, false},
		{"diffuse t at the heat bound", &DiffuseRequest{Seeds: []int{1}, T: MaxHeatT}, true},
		{"diffuse t past the heat bound", &DiffuseRequest{Seeds: []int{1}, T: 710}, false},
		{"diffuse t 5e5", &DiffuseRequest{Seeds: []int{1}, T: 5e5}, false},
		{"localcluster t at the heat bound", &LocalClusterRequest{Seeds: []int{3}, Method: "heat", T: MaxHeatT}, true},
		{"localcluster t past the heat bound", &LocalClusterRequest{Seeds: []int{3}, Method: "heat", T: 744}, false},
		{"localcluster batch t past the heat bound", &LocalClusterBatchRequest{Seeds: []int{3}, Method: "heat", T: 710}, false},
		{"sweepcut ok", &SweepCutRequest{Values: []NodeMass{{Node: 0, Mass: 1}}}, true},
		{"sweepcut empty", &SweepCutRequest{}, false},
		{"sweepcut negative node", &SweepCutRequest{Values: []NodeMass{{Node: -3, Mass: 1}}}, false},
		{"generate kronecker", &GenerateRequest{Family: "kronecker", Levels: 8}, true},
		{"generate unknown family", &GenerateRequest{Family: "nope"}, false},
		{"generate grid missing dims", &GenerateRequest{Family: "grid"}, false},
		{"stream ok", &StreamCreateRequest{Nodes: 4}, true},
		{"stream zero nodes", &StreamCreateRequest{}, false},
		{"edges ok", &EdgeBatchRequest{Edges: []StreamEdge{{U: 0, V: 1}}}, true},
		{"edges empty", &EdgeBatchRequest{}, false},
		{"edges negative weight", &EdgeBatchRequest{Edges: []StreamEdge{{U: 0, V: 1, W: -2}}}, false},
		{"job submit ok", &JobSubmitRequest{Type: "ncp", Graph: "g"}, true},
		{"job submit no type", &JobSubmitRequest{}, false},
		{"ncp params defaults", &NCPJobParams{}, true},
		{"ncp params bad method", &NCPJobParams{Method: "sideways"}, false},
		{"partition params ok", &PartitionJobParams{K: 4}, true},
		{"partition params k0", &PartitionJobParams{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.Normalize()
			err := tc.req.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("Validate() = nil, want invalid_argument")
				}
				if !IsInvalidArgument(err) {
					t.Fatalf("Validate() = %v, want code invalid_argument", err)
				}
			}
		})
	}
}

func TestNormalizeIdempotentAndFillsDefaults(t *testing.T) {
	r := &PPRRequest{Seeds: []int{0}}
	r.Normalize()
	if r.Alpha != 0.15 || r.Eps != 1e-4 || r.TopK != 100 {
		t.Fatalf("defaults: %+v", r)
	}
	alpha, eps, topk := r.Alpha, r.Eps, r.TopK
	r.Normalize()
	if r.Alpha != alpha || r.Eps != eps || r.TopK != topk {
		t.Fatalf("Normalize not idempotent: %+v", r)
	}
}

func TestNewJobMarshalsParams(t *testing.T) {
	req, err := NewJob("ncp", "g", &NCPJobParams{Method: "spectral", Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	var p NCPJobParams
	if err := json.Unmarshal(req.Params, &p); err != nil {
		t.Fatal(err)
	}
	if p.Method != "spectral" || p.Seeds != 4 {
		t.Fatalf("params round trip: %+v", p)
	}
}

func TestJobStatusTerminal(t *testing.T) {
	for s, want := range map[JobStatus]bool{
		JobQueued: false, JobRunning: false,
		JobDone: true, JobFailed: true, JobCancelled: true,
	} {
		if s.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", s, !want, want)
		}
	}
}
