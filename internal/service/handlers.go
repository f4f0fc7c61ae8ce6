package service

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/persist"
	"repro/pkg/api"
)

// Every handler here is a thin decode → validate → execute → encode
// shell: the wire types and their validation live in pkg/api, the
// execute step in queries.go / exec.go, the caching/dedup/deadline
// machinery in pipeline.go, and the shared body/metrics concerns in
// middleware.go.

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bi := buildinfo.Get()
	writeJSON(w, http.StatusOK, api.HealthResponse{
		Status:        "ok",
		Version:       bi.Version,
		Commit:        bi.Commit,
		GoVersion:     bi.GoVersion,
		APIVersion:    api.Version,
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w, s.cache, s.jobs, s.store.dir.Counters())
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.GraphList{Graphs: s.store.List()})
}

// handleLoadGraph ingests an edge-list body (plain or gzip — either via
// Content-Encoding: gzip or raw gzip bytes detected by magic number) and
// registers it as a sealed graph. This is the one non-JSON ingest
// endpoint, so it bypasses the JSON decode pipeline; the body is still
// capped by the MaxBytes middleware.
func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	br := bufio.NewReader(r.Body)
	var reader io.Reader = br
	magic, _ := br.Peek(2)
	if r.Header.Get("Content-Encoding") == "gzip" ||
		(len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b) {
		gz, err := gzip.NewReader(reader)
		if err != nil {
			writeError(w, storeErrf(ErrBadInput, "gunzip body: %v", err))
			return
		}
		defer gz.Close()
		// MaxBytes capped only the compressed stream; cap the
		// decompressed side too so a gzip bomb cannot exhaust memory.
		// The cap reader errors loudly instead of returning EOF, so a
		// truncated graph can never be stored silently.
		reader = &capReader{r: gz, remaining: 4*s.cfg.MaxBodyBytes + 1}
	}
	g, err := graph.ReadEdgeList(reader)
	if err != nil {
		writeError(w, storeErrf(ErrBadInput, "%v", err))
		return
	}
	s.createGraph(w, r, g)
}

// handleGetGraph reports one graph's descriptive record (state, sizes,
// persistence), for sealed and streaming graphs alike.
func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	info, err := s.store.Info(r.PathValue("name"))
	reply(w, http.StatusOK, info, err)
}

// handleExportSnapshot streams the sealed graph as a binary GSNAP
// snapshot (application/octet-stream), encoded directly from the
// in-memory CSR — export works whether or not the server runs with a
// data directory.
func (s *Server) handleExportSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// The snapshot encoder walks a heap CSR: a transient copy.
	g, _, err := s.store.GetHeap(name)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", name+persist.SnapshotExt))
	if err := persist.WriteSnapshot(w, g); err != nil {
		// Headers are out; all we can do is cut the response short so
		// the client sees a truncated (and checksum-failing) stream.
		s.logOp("graphd: exporting snapshot of %q: %v", name, err)
	}
}

// handleImportSnapshot registers a sealed graph from an uploaded GSNAP
// snapshot. The body is capped by the MaxBytes middleware and fully
// validated (checksums + CSR invariants) before the graph is stored.
func (s *Server) handleImportSnapshot(w http.ResponseWriter, r *http.Request) {
	g, err := persist.ReadSnapshot(r.Body)
	if err != nil {
		writeError(w, storeErrf(ErrBadInput, "%v", err))
		return
	}
	s.createGraph(w, r, g)
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	reply(w, http.StatusOK, api.DeleteResponse{Status: "deleted"}, s.store.Delete(r.PathValue("name")))
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req api.GenerateRequest
	if !s.decode(w, r, &req) {
		return
	}
	g, err := generate(req)
	if err != nil {
		writeError(w, err)
		return
	}
	s.createGraph(w, r, g)
}

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	var req api.StreamCreateRequest
	if !s.decode(w, r, &req) {
		return
	}
	info, err := s.store.BeginStream(r.PathValue("name"), req.Nodes)
	reply(w, http.StatusCreated, info, err)
}

// edgeScratch holds the edge slices handleAppendEdges decodes into; the
// store copies what it keeps.
var edgeScratch = sync.Pool{New: func() any { return new([]api.StreamEdge) }}

func (s *Server) handleAppendEdges(w http.ResponseWriter, r *http.Request) {
	scratch := edgeScratch.Get().(*[]api.StreamEdge)
	req := api.EdgeBatchRequest{Edges: *scratch}
	defer func() {
		if cap(req.Edges) > cap(*scratch) && small(req.Edges) {
			*scratch = req.Edges[:0]
		}
		edgeScratch.Put(scratch)
	}()
	if !s.decode(w, r, &req) {
		return
	}
	reply(w, http.StatusOK, api.EdgeBatchResponse{Appended: len(req.Edges)}, s.store.AppendEdges(r.PathValue("name"), req.Edges))
}

func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	info, err := s.store.Seal(r.PathValue("name"))
	reply(w, http.StatusOK, info, err)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.serveQuery(w, r, query{endpoint: "stats", params: []byte("{}"), compute: func(ctx context.Context, q queryView) (any, *api.WorkStats, error) {
		return execStats(name, q.g), nil, nil
	}})
}

func (s *Server) handlePPR(w http.ResponseWriter, r *http.Request) {
	var req api.PPRRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.serveQuery(w, r, query{endpoint: "ppr", params: pprParams(&req), compute: func(ctx context.Context, q queryView) (any, *api.WorkStats, error) {
		return execPPR(ctx, q.g, q.pool, req)
	}})
}

// handlePPRBatch serves K independent single-seed pushes in one request:
// K ppr queries {"seeds":[s]}, computed in one kernel batch pass.
func (s *Server) handlePPRBatch(w http.ResponseWriter, r *http.Request) {
	var req api.PPRBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	twin := api.PPRRequest{Seeds: []int{0}, Alpha: req.Alpha, Eps: req.Eps, TopK: req.TopK, Sweep: req.Sweep}
	s.serveQuery(w, r, query{endpoint: "ppr:batch", params: pprParams((*api.PPRRequest)(&req)), batch: &seedBatch{
		seeds: req.Seeds, endpoint: "ppr", twin: pprParams(&twin), run: (*pprSeeds)(&twin), method: "push-batch",
	}})
}

// handleLocalClusterBatch is handlePPRBatch for K localcluster queries.
func (s *Server) handleLocalClusterBatch(w http.ResponseWriter, r *http.Request) {
	var req api.LocalClusterBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	twin := api.LocalClusterRequest{Method: req.Method, Seeds: []int{0}, Alpha: req.Alpha, Eps: req.Eps, Steps: req.Steps, T: req.T}
	s.serveQuery(w, r, query{endpoint: "localcluster:batch", params: mustParams(req), batch: &seedBatch{
		seeds: req.Seeds, endpoint: "localcluster", twin: mustParams(twin), run: (*clusterSeeds)(&twin), method: req.Method + "-batch",
	}})
}

func (s *Server) handleLocalCluster(w http.ResponseWriter, r *http.Request) {
	var req api.LocalClusterRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.serveQuery(w, r, query{endpoint: "localcluster", params: mustParams(req), compute: func(ctx context.Context, q queryView) (any, *api.WorkStats, error) {
		return execLocalCluster(ctx, q.g, q.pool, req)
	}})
}

func (s *Server) handleDiffuse(w http.ResponseWriter, r *http.Request) {
	var req api.DiffuseRequest
	if !s.decode(w, r, &req) {
		return
	}
	name := r.PathValue("name")
	s.serveQuery(w, r, query{endpoint: "diffuse", params: mustParams(req), compute: func(ctx context.Context, q queryView) (any, *api.WorkStats, error) {
		// The dense diffusions walk a heap CSR: a copy per miss, which
		// the reply outlives (the cache keeps bytes, not the graph).
		hg, hid, err := s.store.GetHeap(name)
		if err == nil && hid != q.id {
			err = storeErrf(ErrConflict, "graph %q was replaced mid-query", name)
		}
		if err != nil {
			return nil, nil, err
		}
		return execDiffuse(ctx, hg, req)
	}})
}

func (s *Server) handleSweepCut(w http.ResponseWriter, r *http.Request) {
	var req api.SweepCutRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.serveQuery(w, r, query{endpoint: "sweepcut", params: mustParams(req), compute: func(ctx context.Context, q queryView) (any, *api.WorkStats, error) {
		return execSweepCut(q.g, q.pool, req)
	}})
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobSubmitRequest
	if !s.decode(w, r, &req) {
		return
	}
	view, err := s.jobs.Submit(req.Type, req.Graph, req.Params)
	reply(w, http.StatusAccepted, view, err)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.JobList{Jobs: s.jobs.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.jobs.Get(r.PathValue("id"))
	reply(w, http.StatusOK, view, err)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	body, err := s.jobs.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSONBytes(w, http.StatusOK, body)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.jobs.Cancel(r.PathValue("id"))
	reply(w, http.StatusOK, view, err)
}

// createGraph is the tail the graph-creating endpoints share: store g
// under the route's {name}, on the backend the optional ?backend= names
// (empty means the store's default), and answer 201 with its record.
func (s *Server) createGraph(w http.ResponseWriter, r *http.Request, g *graph.Graph) {
	var backend gstore.Kind
	if v := urlParams(r).Get("backend"); v != "" {
		var err error
		if backend, err = gstore.ParseKind(v); err != nil {
			writeError(w, storeErrf(ErrBadInput, "%v", err))
			return
		}
	}
	info, err := s.store.PutWithBackend(r.PathValue("name"), g, backend)
	reply(w, http.StatusCreated, info, err)
}
