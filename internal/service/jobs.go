package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gstore"
	"repro/pkg/api"
)

// Job is one queued global computation. Mutable fields are guarded by
// mu; the result bytes are written once before status becomes done. Its
// externally visible snapshot is the wire type api.JobView.
type Job struct {
	mu        sync.Mutex
	id        string
	jobType   string
	graphName string
	graphID   uint64
	params    json.RawMessage
	cacheKey  string

	status    api.JobStatus
	errMsg    string
	result    []byte
	fromCache bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	ctx       context.Context
	cancel    context.CancelFunc

	// progress is the executor-reported completion fraction, stored as
	// float bits so pollers read it without taking mu mid-computation.
	progress atomic.Uint64
}

// setProgress clamps and publishes a completion fraction in [0,1].
func (j *Job) setProgress(f float64) {
	if math.IsNaN(f) || f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	j.progress.Store(math.Float64bits(f))
}

func (j *Job) view() api.JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := api.JobView{
		ID: j.id, Type: j.jobType, Graph: j.graphName, Params: j.params,
		Status: j.status, Error: j.errMsg, FromCache: j.fromCache,
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
		if !j.started.IsZero() {
			v.RunTimeMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	v.Progress = math.Float64frombits(j.progress.Load())
	return v
}

// ProgressFunc publishes a job's completion fraction in [0,1]. The job
// manager hands one to every executor; reporting is side-effect-only and
// must never influence the computation.
type ProgressFunc func(float64)

// JobExecutor runs one job type on the served graph, compact or
// mapped, reporting its progress through report. The returned value is
// marshaled to JSON and must be deterministic for identical params
// (given a fixed BaseSeed), so cached replays are byte-identical.
type JobExecutor func(ctx context.Context, g gstore.Graph, params json.RawMessage, report ProgressFunc) (any, error)

// JobManager is the bounded async work queue: Submit enqueues, a fixed
// set of workers drains, Cancel aborts via context cancellation, and
// results are kept in-memory (and replayed byte-identically through the
// shared result cache).
type JobManager struct {
	specs   map[string]JobExecutor
	store   *GraphStore
	cache   *LRUCache
	metrics *Metrics

	queue   chan *Job
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	closeMu sync.RWMutex
	closed  bool

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID atomic.Uint64

	queued   atomic.Int64
	running  atomic.Int64
	finished atomic.Int64
}

// NewJobManager starts workers goroutines draining a queue of at most
// queueCap pending jobs (both default when <= 0).
func NewJobManager(store *GraphStore, cache *LRUCache, metrics *Metrics, workers, queueCap int) *JobManager {
	if workers <= 0 {
		workers = 2
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &JobManager{
		specs:   make(map[string]JobExecutor),
		store:   store,
		cache:   cache,
		metrics: metrics,
		queue:   make(chan *Job, queueCap),
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*Job),
	}
	for w := 0; w < workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Register adds a job type. Every job resolves its graph at submit time
// and fails submission when it is absent or unsealed.
func (m *JobManager) Register(name string, run JobExecutor) {
	m.specs[name] = run
}

// Types returns the registered job type names, sorted, for error
// messages.
func (m *JobManager) Types() []string { return slices.Sorted(maps.Keys(m.specs)) }

// Close cancels all running jobs and waits for the workers to exit.
// Submissions racing with Close are rejected rather than panicking on
// the closed queue.
func (m *JobManager) Close() {
	m.stop()
	m.closeMu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.closeMu.Unlock()
	m.wg.Wait()
}

// Depths reports the queue gauges: jobs waiting, jobs running, jobs
// finished (done, failed or cancelled).
func (m *JobManager) Depths() (queued, running, finished int64) {
	return m.queued.Load(), m.running.Load(), m.finished.Load()
}

// canonicalJSON re-marshals raw JSON into a canonical form (sorted map
// keys, normalized whitespace) so that semantically identical job
// params — which arrive as the submitter spelled them, unlike a query's,
// which are marshalled from the typed request — share one cache key.
// Numbers are decoded as json.Number — not float64 — so int64 values
// beyond 2^53 (e.g. base_seed) keep their exact digits and distinct
// requests cannot collide onto one key.
func canonicalJSON(raw json.RawMessage) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", fmt.Errorf("invalid JSON: %w", err)
	}
	out, err := json.Marshal(v)
	return string(out), err
}

// Submit validates and enqueues a job, returning its snapshot. The
// params are canonicalized into the job's cache key so that identical
// submissions replay the cached result bytes.
func (m *JobManager) Submit(jobType, graphName string, params json.RawMessage) (api.JobView, error) {
	if _, ok := m.specs[jobType]; !ok {
		return api.JobView{}, api.Errorf(api.CodeInvalidArgument, "unknown job type %q (have %v)", jobType, m.Types())
	}
	_, graphID, err := m.store.Get(graphName)
	if err != nil {
		return api.JobView{}, err
	}
	if len(params) == 0 {
		params = json.RawMessage("{}")
	}
	canon, err := canonicalJSON(params)
	if err != nil {
		return api.JobView{}, api.Errorf(api.CodeInvalidArgument, "params: %v", err)
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	job := &Job{
		id:        fmt.Sprintf("j%d", m.nextID.Add(1)),
		jobType:   jobType,
		graphName: graphName,
		graphID:   graphID,
		params:    params,
		cacheKey:  fmt.Sprintf("job|%s|g%d|%s", jobType, graphID, canon),
		status:    api.JobQueued,
		submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
	}
	// Reserve the queue slot before registering the job, so a full
	// queue needs no registry rollback (which would race with other
	// submissions). Workers never need the registry to run a job, and
	// the id only becomes observable once Submit returns.
	m.closeMu.RLock()
	if m.closed {
		m.closeMu.RUnlock()
		cancel()
		return api.JobView{}, api.Errorf(api.CodeUnavailable, "job manager is shut down")
	}
	select {
	case m.queue <- job:
		m.queued.Add(1)
	default:
		m.closeMu.RUnlock()
		cancel()
		// Backpressure, not a state conflict: clients should back off
		// and retry (the SDK does so automatically on 503).
		return api.JobView{}, api.Errorf(api.CodeUnavailable, "job queue full (%d pending)", cap(m.queue))
	}
	m.closeMu.RUnlock()
	m.mu.Lock()
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.pruneLocked()
	m.mu.Unlock()
	return job.view(), nil
}

// maxRetainedJobs bounds the job registry: a long-running daemon must
// not keep every finished job's result bytes forever. Active jobs are
// never pruned (their count is already bounded by queue cap + workers).
const maxRetainedJobs = 1024

// pruneLocked evicts the oldest terminal jobs while the registry
// exceeds maxRetainedJobs. Caller holds m.mu.
func (m *JobManager) pruneLocked() {
	for len(m.order) > maxRetainedJobs {
		removed := false
		for i, id := range m.order {
			j := m.jobs[id]
			j.mu.Lock()
			terminal := j.status.Terminal()
			j.mu.Unlock()
			if terminal {
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				removed = true
				break
			}
		}
		if !removed {
			return
		}
	}
}

// Get returns the snapshot of one job.
func (m *JobManager) Get(id string) (api.JobView, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return api.JobView{}, api.Errorf(api.CodeNotFound, "job %q not found", id)
	}
	return job.view(), nil
}

// Result returns the result bytes of a finished job. A conflict is
// returned while the job is still queued or running.
func (m *JobManager) Result(id string) ([]byte, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, api.Errorf(api.CodeNotFound, "job %q not found", id)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	switch job.status {
	case api.JobDone:
		return job.result, nil
	case api.JobFailed:
		return nil, api.Errorf(api.CodeConflict, "job %q failed: %s", id, job.errMsg)
	case api.JobCancelled:
		return nil, api.Errorf(api.CodeConflict, "job %q was cancelled", id)
	default:
		return nil, api.Errorf(api.CodeConflict, "job %q is %s", id, job.status)
	}
}

// List returns snapshots of all jobs in submission order.
func (m *JobManager) List() []api.JobView {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]api.JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

// Cancel aborts a queued or running job: its context is cancelled and
// the worker pool observes ctx.Done() mid-computation.
func (m *JobManager) Cancel(id string) (api.JobView, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return api.JobView{}, api.Errorf(api.CodeNotFound, "job %q not found", id)
	}
	job.mu.Lock()
	switch job.status {
	case api.JobQueued:
		// The job becomes a tombstone: it still occupies its channel
		// slot until a worker drains it, but it is finished as far as
		// callers and gauges are concerned.
		job.status = api.JobCancelled
		job.finished = time.Now()
		m.queued.Add(-1)
		m.finished.Add(1)
	case api.JobRunning:
		// The worker observes ctx.Done() and finalizes the job itself.
	default:
		job.mu.Unlock()
		return api.JobView{}, api.Errorf(api.CodeConflict, "job %q already %s", id, job.status)
	}
	job.mu.Unlock()
	job.cancel()
	return job.view(), nil
}

func (m *JobManager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.runJob(job)
	}
}

func (m *JobManager) runJob(job *Job) {
	job.mu.Lock()
	if job.status != api.JobQueued {
		job.mu.Unlock()
		return // cancelled while waiting in the queue; gauges already settled
	}
	job.status = api.JobRunning
	job.started = time.Now()
	wait := job.started.Sub(job.submitted)
	job.mu.Unlock()
	if m.metrics != nil {
		m.metrics.ObserveJobWait(job.jobType, wait)
	}
	m.queued.Add(-1)
	m.running.Add(1)
	defer m.running.Add(-1)
	defer m.finished.Add(1)
	defer job.cancel() // release the context's resources

	finish := func(status api.JobStatus, result []byte, fromCache bool, errMsg string) {
		if status == api.JobDone {
			job.setProgress(1)
		}
		job.mu.Lock()
		job.status = status
		job.result = result
		job.fromCache = fromCache
		job.errMsg = errMsg
		job.finished = time.Now()
		dur := job.finished.Sub(job.started)
		job.mu.Unlock()
		if m.metrics != nil {
			m.metrics.ObserveJob(job.jobType, dur)
		}
	}

	if m.cache != nil {
		if cached, _, ok := m.cache.Get(job.cacheKey); ok {
			finish(api.JobDone, cached, true, "")
			return
		}
	}
	g, id, err := m.store.Get(job.graphName)
	if err != nil {
		finish(api.JobFailed, nil, false, toAPIError(err).Message)
		return
	}
	// The name may have been deleted and re-created while the job
	// waited; running against a different graph than the one the
	// caller submitted for would silently answer the wrong question
	// (and poison the cache key, which embeds the submit-time id).
	if id != job.graphID {
		finish(api.JobFailed, nil, false,
			fmt.Sprintf("graph %q was replaced after submission", job.graphName))
		return
	}
	val, err := runExecutor(m.specs[job.jobType], job.ctx, g, job.params, job.setProgress)
	if err != nil {
		if errors.Is(err, context.Canceled) || job.ctx.Err() != nil {
			finish(api.JobCancelled, nil, false, err.Error())
		} else {
			finish(api.JobFailed, nil, false, toAPIError(err).Message)
		}
		return
	}
	out, err := json.Marshal(val)
	if err != nil {
		finish(api.JobFailed, nil, false, fmt.Sprintf("marshal result: %v", err))
		return
	}
	if m.cache != nil {
		m.cache.Add(job.cacheKey, out, nil)
	}
	finish(api.JobDone, out, false, "")
}

// runExecutor confines executor panics to the job: the workers run
// outside net/http's per-request recover, so an uncaught panic in an
// algorithm would otherwise take down the whole daemon.
func runExecutor(run JobExecutor, ctx context.Context, g gstore.Graph, params json.RawMessage, report ProgressFunc) (val any, err error) {
	defer func() {
		if p := recover(); p != nil {
			val, err = nil, fmt.Errorf("internal panic: %v", p)
		}
	}()
	return run(ctx, g, params, report)
}
