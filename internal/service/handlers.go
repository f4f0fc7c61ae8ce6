package service

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
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
			writeError(w, api.Errorf(api.CodeInvalidArgument, "gunzip body: %v", err))
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
		writeError(w, api.Errorf(api.CodeInvalidArgument, "%v", err))
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
// snapshot (application/octet-stream), written from the served graph
// itself, compact or mapped, with no copy. Export works whether or not
// the server runs with a data directory; with one, the bytes are the
// graph's snapshot file.
func (s *Server) handleExportSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g, _, err := s.store.Get(name)
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
// validated (checksums + CSR invariants) before the graph is stored;
// the compact graph the decoder built is the one stored.
func (s *Server) handleImportSnapshot(w http.ResponseWriter, r *http.Request) {
	g, err := persist.ReadCompact(r.Body)
	if err != nil {
		writeError(w, api.Errorf(api.CodeInvalidArgument, "%v", err))
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
	s.serveQuery(w, r, query{endpoint: "stats", params: []byte("{}"), compute: func(_ context.Context, g gstore.Graph, _ []int, _ bool) ([]byte, api.WorkStats, error) {
		body, err := json.Marshal(execStats(name, g))
		return body, api.WorkStats{}, err
	}})
}

func (s *Server) handlePPR(w http.ResponseWriter, r *http.Request) {
	var req api.PPRRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.serveQuery(w, r, query{endpoint: "ppr", params: pprParams(&req), compute: func(ctx context.Context, g gstore.Graph, _ []int, debugWork bool) ([]byte, api.WorkStats, error) {
		return execPPR(ctx, g, req, debugWork)
	}})
}

// handlePPRBatch serves K independent single-seed pushes in one request:
// K ppr queries {"seeds":[s]}, each computed by the ppr query's code.
func (s *Server) handlePPRBatch(w http.ResponseWriter, r *http.Request) {
	var req api.PPRBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.serveQuery(w, r, pprBatchQuery(&req))
}

// pprBatchQuery is the query a ppr:batch request hands the pipeline.
func pprBatchQuery(req *api.PPRBatchRequest) query {
	twin := api.PPRRequest(*req)
	twin.Seeds = []int{0}
	return query{endpoint: "ppr:batch", params: pprParams((*api.PPRRequest)(req)),
		compute: func(ctx context.Context, g gstore.Graph, seeds []int, debugWork bool) ([]byte, api.WorkStats, error) {
			one := api.PPRRequest(*req)
			one.Seeds = seeds
			return execPPR(ctx, g, one, debugWork)
		},
		batch: &seedBatch{seeds: req.Seeds, endpoint: "ppr", twin: pprParams(&twin), splice: api.AppendPPRBatchJSON, method: "push-batch"},
	}
}

// handleLocalClusterBatch is handlePPRBatch for K localcluster queries.
func (s *Server) handleLocalClusterBatch(w http.ResponseWriter, r *http.Request) {
	var req api.LocalClusterBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	twin := api.LocalClusterRequest(req)
	twin.Seeds = []int{0}
	s.serveQuery(w, r, query{endpoint: "localcluster:batch", params: mustParams(req),
		compute: func(ctx context.Context, g gstore.Graph, seeds []int, debugWork bool) ([]byte, api.WorkStats, error) {
			one := api.LocalClusterRequest(req)
			one.Seeds = seeds
			return execLocalCluster(ctx, g, one, debugWork)
		},
		batch: &seedBatch{seeds: req.Seeds, endpoint: "localcluster", twin: mustParams(twin), method: req.Method + "-batch",
			splice: func(dst []byte, seeds []int, body func(int) []byte, _ float64, work *api.WorkStats) ([]byte, error) {
				return api.AppendLocalClusterBatchJSON(dst, req.Method, seeds, body, work)
			}},
	})
}

func (s *Server) handleLocalCluster(w http.ResponseWriter, r *http.Request) {
	var req api.LocalClusterRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.serveQuery(w, r, query{endpoint: "localcluster", params: mustParams(req), compute: func(ctx context.Context, g gstore.Graph, _ []int, debugWork bool) ([]byte, api.WorkStats, error) {
		return execLocalCluster(ctx, g, req, debugWork)
	}})
}

func (s *Server) handleDiffuse(w http.ResponseWriter, r *http.Request) {
	var req api.DiffuseRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.serveQuery(w, r, query{endpoint: "diffuse", params: mustParams(req), compute: func(ctx context.Context, g gstore.Graph, _ []int, debugWork bool) ([]byte, api.WorkStats, error) {
		return execDiffuse(ctx, g, req, debugWork)
	}})
}

func (s *Server) handleSweepCut(w http.ResponseWriter, r *http.Request) {
	var req api.SweepCutRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.serveQuery(w, r, query{endpoint: "sweepcut", params: mustParams(req), compute: func(_ context.Context, g gstore.Graph, _ []int, _ bool) ([]byte, api.WorkStats, error) {
		return execSweepCut(g, req)
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
func (s *Server) createGraph(w http.ResponseWriter, r *http.Request, g *gstore.Compact) {
	var backend gstore.Kind
	if v := urlParams(r).Get("backend"); v != "" {
		var err error
		if backend, err = gstore.ParseKind(v); err != nil {
			writeError(w, api.Errorf(api.CodeInvalidArgument, "%v", err))
			return
		}
	}
	info, err := s.store.PutWithBackend(r.PathValue("name"), g, backend)
	reply(w, http.StatusCreated, info, err)
}
