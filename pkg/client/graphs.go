package client

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"

	"repro/pkg/api"
)

// QueryOption adjusts a single synchronous query call (PPR,
// LocalCluster, Diffuse) by editing its URL query parameters.
type QueryOption func(url.Values)

// WithWorkStats asks the server to attach its kernel work accounting to
// the response (the ?debug=work switch): the returned response's Work
// field carries pushes, work volume and support for the diffusion that
// answered the query. Responses with and without work stats are cached
// separately by the server.
func WithWorkStats() QueryOption {
	return func(q url.Values) { q.Set("debug", "work") }
}

// CreateOption adjusts a graph-creating call (Load, Import, Generate)
// by editing its URL query parameters.
type CreateOption func(url.Values)

// WithBackend asks the server to serve the new graph from the given
// storage backend ("compact" or "mmap") instead of the server's
// default. The mmap backend needs the server to run with a data
// directory.
func WithBackend(backend api.GraphBackend) CreateOption {
	return func(q url.Values) { q.Set("backend", string(backend)) }
}

// createValues builds the query parameters for a graph-creating call.
func createValues(opts []CreateOption) url.Values {
	if len(opts) == 0 {
		return nil
	}
	q := url.Values{}
	for _, o := range opts {
		o(q)
	}
	return q
}

// queryValuesOpts extends the client-wide query parameters with
// per-call options.
func (c *Client) queryValuesOpts(opts []QueryOption) url.Values {
	q := c.queryValues()
	if q == nil && len(opts) > 0 {
		q = url.Values{}
	}
	for _, o := range opts {
		o(q)
	}
	return q
}

// GraphsService covers the /v1/graphs endpoint family: the graph
// lifecycle (load, generate, stream/append/seal, delete, list) and the
// synchronous strongly-local queries (ppr, localcluster, diffuse,
// sweepcut, stats).
type GraphsService struct {
	c *Client
}

// List returns info for every stored graph, sorted by name.
func (s *GraphsService) List(ctx context.Context) ([]api.GraphInfo, error) {
	var out api.GraphList
	err := s.c.doJSON(ctx, http.MethodGet, v1("graphs"), nil, nil, &out)
	return out.Graphs, err
}

// Load uploads an edge list (the text format graph.ReadEdgeList
// accepts) and registers it as a sealed graph named name. The body is
// buffered so the call can be retried; for very large graphs prefer
// LoadFile, and enable WithGzipUpload to compress the wire transfer.
func (s *GraphsService) Load(ctx context.Context, name string, edgeList io.Reader, opts ...CreateOption) (api.GraphInfo, error) {
	data, err := io.ReadAll(edgeList)
	if err != nil {
		return api.GraphInfo{}, fmt.Errorf("client: reading edge list: %w", err)
	}
	return s.upload(ctx, name, data, false, opts)
}

// LoadFile uploads the edge-list file at path (plain or .gz) as a
// sealed graph named name.
func (s *GraphsService) LoadFile(ctx context.Context, name, path string, opts ...CreateOption) (api.GraphInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return api.GraphInfo{}, fmt.Errorf("client: %w", err)
	}
	// Already-compressed files ship as-is; the server sniffs the gzip
	// magic bytes.
	return s.upload(ctx, name, data, strings.HasSuffix(path, ".gz"), opts)
}

// upload POSTs edge-list bytes, gzip-compressing them when the client
// is configured for it and the payload is not already compressed.
func (s *GraphsService) upload(ctx context.Context, name string, data []byte, compressed bool, opts []CreateOption) (api.GraphInfo, error) {
	contentType := "text/plain"
	if s.c.gzipUpload && !compressed {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(data); err != nil {
			return api.GraphInfo{}, fmt.Errorf("client: compressing edge list: %w", err)
		}
		if err := zw.Close(); err != nil {
			return api.GraphInfo{}, fmt.Errorf("client: compressing edge list: %w", err)
		}
		data = buf.Bytes()
	}
	body, _, err := s.c.doRaw(ctx, http.MethodPost, v1("graphs", name), createValues(opts), &requestBody{data: data}, contentType, nil)
	if err != nil {
		return api.GraphInfo{}, err
	}
	var info api.GraphInfo
	if err := unmarshalInto(body, &info); err != nil {
		return api.GraphInfo{}, err
	}
	return info, nil
}

// Get returns the descriptive record (state, sizes, persistence) for
// one graph, sealed or streaming.
func (s *GraphsService) Get(ctx context.Context, name string) (api.GraphInfo, error) {
	var out api.GraphInfo
	err := s.c.doJSON(ctx, http.MethodGet, v1("graphs", name), nil, nil, &out)
	return out, err
}

// Export downloads the sealed graph as a binary GSNAP snapshot
// (application/octet-stream), streaming it into w without buffering
// the whole file, and returns the byte count. The snapshot is the
// exact CSR of the stored graph; importing it (here or on another
// server) reproduces the graph bit-for-bit. A download cut short by a
// failure mid-stream returns an error, and a partial file never
// imports: every section is checksummed.
func (s *GraphsService) Export(ctx context.Context, name string, w io.Writer) (int64, error) {
	body, err := s.c.doStream(ctx, v1("graphs", name, "snapshot"))
	if err != nil {
		return 0, err
	}
	defer body.Close()
	n, err := io.Copy(w, body)
	if err != nil {
		return n, fmt.Errorf("client: downloading snapshot: %w", err)
	}
	return n, nil
}

// ExportFile downloads the sealed graph's snapshot to path.
func (s *GraphsService) ExportFile(ctx context.Context, name, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("client: %w", err)
	}
	n, err := s.Export(ctx, name, f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("client: closing %s: %w", path, cerr)
	}
	return n, err
}

// Import uploads a GSNAP snapshot and registers it as a sealed graph
// named name. The server validates the checksums and CSR invariants
// before storing anything.
func (s *GraphsService) Import(ctx context.Context, name string, snapshot io.Reader, opts ...CreateOption) (api.GraphInfo, error) {
	data, err := io.ReadAll(snapshot)
	if err != nil {
		return api.GraphInfo{}, fmt.Errorf("client: reading snapshot: %w", err)
	}
	body, _, err := s.c.doRaw(ctx, http.MethodPut, v1("graphs", name, "snapshot"), createValues(opts), &requestBody{data: data}, "application/octet-stream", nil)
	if err != nil {
		return api.GraphInfo{}, err
	}
	var info api.GraphInfo
	if err := unmarshalInto(body, &info); err != nil {
		return api.GraphInfo{}, err
	}
	return info, nil
}

// ImportFile uploads the snapshot file at path as a sealed graph.
func (s *GraphsService) ImportFile(ctx context.Context, name, path string, opts ...CreateOption) (api.GraphInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return api.GraphInfo{}, fmt.Errorf("client: %w", err)
	}
	defer f.Close()
	return s.Import(ctx, name, f, opts...)
}

// Generate asks the server to synthesize a graph named name from one of
// the generator families.
func (s *GraphsService) Generate(ctx context.Context, name string, req api.GenerateRequest, opts ...CreateOption) (api.GraphInfo, error) {
	var out api.GraphInfo
	err := s.c.doJSON(ctx, http.MethodPost, v1("graphs", name, "generate"), createValues(opts), &req, &out)
	return out, err
}

// Stream opens an incremental graph on nodes vertices; feed it with
// AppendEdges and freeze it with Seal.
func (s *GraphsService) Stream(ctx context.Context, name string, nodes int) (api.GraphInfo, error) {
	var out api.GraphInfo
	req := api.StreamCreateRequest{Nodes: nodes}
	err := s.c.doJSON(ctx, http.MethodPost, v1("graphs", name, "stream"), nil, &req, &out)
	return out, err
}

// AppendEdges adds a batch of edges to a streaming graph, returning how
// many were appended. The batch is all-or-nothing.
func (s *GraphsService) AppendEdges(ctx context.Context, name string, edges []api.StreamEdge) (int, error) {
	var out api.EdgeBatchResponse
	req := api.EdgeBatchRequest{Edges: edges}
	err := s.c.doJSON(ctx, http.MethodPost, v1("graphs", name, "edges"), nil, &req, &out)
	return out.Appended, err
}

// Seal freezes a streaming graph into its immutable, queryable form.
func (s *GraphsService) Seal(ctx context.Context, name string) (api.GraphInfo, error) {
	var out api.GraphInfo
	err := s.c.doJSON(ctx, http.MethodPost, v1("graphs", name, "seal"), nil, nil, &out)
	return out, err
}

// Delete removes the named graph (sealed or streaming).
func (s *GraphsService) Delete(ctx context.Context, name string) error {
	return s.c.doJSON(ctx, http.MethodDelete, v1("graphs", name), nil, nil, nil)
}

// Stats summarizes the named sealed graph.
func (s *GraphsService) Stats(ctx context.Context, name string) (api.StatsResponse, error) {
	var out api.StatsResponse
	err := s.c.doJSON(ctx, http.MethodGet, v1("graphs", name, "stats"), s.c.queryValues(), nil, &out)
	return out, err
}

// PPR runs the ACL push personalized-PageRank query. Pass
// WithWorkStats() to receive the kernel work accounting in out.Work.
func (s *GraphsService) PPR(ctx context.Context, name string, req api.PPRRequest, opts ...QueryOption) (api.PPRResponse, error) {
	var out api.PPRResponse
	err := s.c.doJSON(ctx, http.MethodPost, v1("graphs", name, "ppr"), s.c.queryValuesOpts(opts), &req, &out)
	return out, err
}

// PPRBatch runs one independent single-seed PPR push per entry of
// req.Seeds in a single request, each computed by the server as the
// single-seed query is. Each per-seed result is byte-identical to what
// PPR would return for {"seeds":[s]} with the same parameters. Pass
// WithWorkStats() to receive the aggregated work accounting in
// out.Work.
func (s *GraphsService) PPRBatch(ctx context.Context, name string, req api.PPRBatchRequest, opts ...QueryOption) (api.PPRBatchResponse, error) {
	var out api.PPRBatchResponse
	err := s.c.doJSON(ctx, http.MethodPost, v1("graphs", name, "ppr:batch"), s.c.queryValuesOpts(opts), &req, &out)
	return out, err
}

// LocalCluster runs one of the strongly-local clustering methods
// (ppr, nibble, heat) around the seed set. Pass WithWorkStats() to
// receive the kernel work accounting in out.Work.
func (s *GraphsService) LocalCluster(ctx context.Context, name string, req api.LocalClusterRequest, opts ...QueryOption) (api.LocalClusterResponse, error) {
	var out api.LocalClusterResponse
	err := s.c.doJSON(ctx, http.MethodPost, v1("graphs", name, "localcluster"), s.c.queryValuesOpts(opts), &req, &out)
	return out, err
}

// LocalClusterBatch runs one independent single-seed local clustering
// per entry of req.Seeds (method and budget knobs shared), each
// computed by the server as the single-seed query is. Pass
// WithWorkStats() to receive the aggregated work accounting in
// out.Work.
func (s *GraphsService) LocalClusterBatch(ctx context.Context, name string, req api.LocalClusterBatchRequest, opts ...QueryOption) (api.LocalClusterBatchResponse, error) {
	var out api.LocalClusterBatchResponse
	err := s.c.doJSON(ctx, http.MethodPost, v1("graphs", name, "localcluster:batch"), s.c.queryValuesOpts(opts), &req, &out)
	return out, err
}

// Diffuse runs a dense diffusion (heat kernel, PageRank or lazy walk).
// Pass WithWorkStats() to receive the (coarse, dense) work accounting
// in out.Work.
func (s *GraphsService) Diffuse(ctx context.Context, name string, req api.DiffuseRequest, opts ...QueryOption) (api.DiffuseResponse, error) {
	var out api.DiffuseResponse
	err := s.c.doJSON(ctx, http.MethodPost, v1("graphs", name, "diffuse"), s.c.queryValuesOpts(opts), &req, &out)
	return out, err
}

// SweepCut sweeps a caller-provided vector over the graph and returns
// the best prefix cut.
func (s *GraphsService) SweepCut(ctx context.Context, name string, req api.SweepCutRequest) (api.SweepInfo, error) {
	var out api.SweepInfo
	err := s.c.doJSON(ctx, http.MethodPost, v1("graphs", name, "sweepcut"), s.c.queryValues(), &req, &out)
	return out, err
}
