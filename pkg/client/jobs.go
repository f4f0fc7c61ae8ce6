package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/pkg/api"
)

// JobsService covers the /v1/jobs endpoint family: the async queue for
// the expensive global computations on a stored graph (NCP profiles,
// partitions).
type JobsService struct {
	c *Client
}

// Submit enqueues a job and returns its initial snapshot. Build the
// request by hand or with api.NewJob:
//
//	req, _ := api.NewJob("ncp", "web", &api.NCPJobParams{Method: "spectral"})
//	view, err := c.Jobs.Submit(ctx, req)
func (s *JobsService) Submit(ctx context.Context, req api.JobSubmitRequest) (api.JobView, error) {
	var out api.JobView
	err := s.c.doJSON(ctx, http.MethodPost, v1("jobs"), nil, &req, &out)
	return out, err
}

// Get returns the current snapshot of one job.
func (s *JobsService) Get(ctx context.Context, id string) (api.JobView, error) {
	var out api.JobView
	err := s.c.doJSON(ctx, http.MethodGet, v1("jobs", id), nil, nil, &out)
	return out, err
}

// List returns snapshots of all retained jobs in submission order.
func (s *JobsService) List(ctx context.Context) ([]api.JobView, error) {
	var out api.JobList
	err := s.c.doJSON(ctx, http.MethodGet, v1("jobs"), nil, nil, &out)
	return out.Jobs, err
}

// Cancel aborts a queued or running job and returns its snapshot.
func (s *JobsService) Cancel(ctx context.Context, id string) (api.JobView, error) {
	var out api.JobView
	err := s.c.doJSON(ctx, http.MethodDelete, v1("jobs", id), nil, nil, &out)
	return out, err
}

// ResultRaw returns a finished job's result payload as raw JSON. The
// server answers 409 conflict while the job is still queued or running.
func (s *JobsService) ResultRaw(ctx context.Context, id string) (json.RawMessage, error) {
	body, _, err := s.c.doRaw(ctx, http.MethodGet, v1("jobs", id, "result"), nil, nil, "", nil)
	if err != nil {
		return nil, err
	}
	return json.RawMessage(body), nil
}

// Result decodes a finished job's result payload into out (one of the
// api.*JobResult types for the built-in job types).
func (s *JobsService) Result(ctx context.Context, id string, out any) error {
	body, err := s.ResultRaw(ctx, id)
	if err != nil {
		return err
	}
	return unmarshalInto(body, out)
}

// Wait polls the job until it reaches a terminal state (done, failed or
// cancelled) and returns that snapshot. It does not treat a failed or
// cancelled job as an error — inspect view.Status — and returns early
// only when ctx is done or the server becomes unreachable. The poll
// interval is configured with WithPollInterval.
func (s *JobsService) Wait(ctx context.Context, id string) (api.JobView, error) {
	return s.WaitFunc(ctx, id, nil)
}

// WaitFunc is Wait with a per-poll observer: onPoll receives every
// snapshot, including the terminal one, which is how a CLI renders live
// progress from view.Progress. A nil onPoll behaves exactly like Wait.
func (s *JobsService) WaitFunc(ctx context.Context, id string, onPoll func(api.JobView)) (api.JobView, error) {
	t := time.NewTicker(s.c.pollEvery)
	defer t.Stop()
	for {
		view, err := s.Get(ctx, id)
		if err != nil {
			return api.JobView{}, err
		}
		if onPoll != nil {
			onPoll(view)
		}
		if view.Status.Terminal() {
			return view, nil
		}
		select {
		case <-ctx.Done():
			return view, ctx.Err()
		case <-t.C:
		}
	}
}

// WaitResult is Wait followed by Result: it blocks until the job is
// terminal, errors with code conflict if it failed or was cancelled,
// and otherwise decodes the result payload into out.
func (s *JobsService) WaitResult(ctx context.Context, id string, out any) (api.JobView, error) {
	view, err := s.Wait(ctx, id)
	if err != nil {
		return view, err
	}
	if view.Status != api.JobDone {
		return view, api.Errorf(api.CodeConflict, "job %s is %s: %s", view.ID, view.Status, view.Error)
	}
	return view, s.Result(ctx, id, out)
}

// unmarshalInto decodes a response body with a client-flavored error.
func unmarshalInto(body []byte, out any) error {
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}
