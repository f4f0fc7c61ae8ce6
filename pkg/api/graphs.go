package api

// GraphState is the lifecycle state of a stored graph.
type GraphState string

const (
	// GraphStreaming: the graph is accumulating edges and cannot be
	// queried yet.
	GraphStreaming GraphState = "streaming"
	// GraphSealed: the graph is frozen into immutable CSR form and
	// queryable.
	GraphSealed GraphState = "sealed"
)

// GraphPersistence describes how a stored graph is held on disk.
type GraphPersistence string

const (
	// PersistNone: the graph lives only in memory (no -data-dir, or the
	// server predates durability). A restart loses it.
	PersistNone GraphPersistence = "none"
	// PersistSnapshot: the sealed graph has a durable binary CSR
	// snapshot; a restart reloads it.
	PersistSnapshot GraphPersistence = "snapshot"
	// PersistWAL: the streaming graph's edge batches are in a durable
	// write-ahead log; a restart replays them back into streaming state.
	PersistWAL GraphPersistence = "wal"
)

// GraphBackend identifies the in-process storage backend a sealed
// graph is served from.
type GraphBackend string

const (
	// BackendCompact: the in-memory CSR (the default), with uint32 node
	// ids and weights stored only when not all 1, narrowed to float32
	// when lossless.
	BackendCompact GraphBackend = "compact"
	// BackendMmap: adjacency served directly off the memory-mapped GSNAP
	// v2 snapshot — zero-copy load and near-instant restart.
	BackendMmap GraphBackend = "mmap"
)

// GraphInfo describes one stored graph; returned by the load, generate,
// stream, seal, import, get and list endpoints.
type GraphInfo struct {
	Name   string     `json:"name"`
	State  GraphState `json:"state"`
	Sealed bool       `json:"sealed"` // convenience mirror of State
	Nodes  int        `json:"nodes"`
	Edges  int        `json:"edges"`
	Volume float64    `json:"volume,omitempty"`
	// Persistence reports the graph's durability: "none", "snapshot" or
	// "wal".
	Persistence GraphPersistence `json:"persistence,omitempty"`
	// Backend reports the storage backend a sealed graph is served from:
	// "compact" or "mmap". Empty while streaming.
	Backend GraphBackend `json:"backend,omitempty"`
}

// GraphList is the reply of GET /v1/graphs.
type GraphList struct {
	Graphs []GraphInfo `json:"graphs"`
}

// StatsResponse summarizes a stored graph (GET /v1/graphs/{name}/stats).
type StatsResponse struct {
	Name      string  `json:"name"`
	Nodes     int     `json:"nodes"`
	Edges     int     `json:"edges"`
	Volume    float64 `json:"volume"`
	MinDegree float64 `json:"min_degree"`
	MaxDegree float64 `json:"max_degree"`
	AvgDegree float64 `json:"avg_degree"`
	Isolated  int     `json:"isolated"`
}

// GenerateFamilies are the accepted GenerateRequest.Family values.
var GenerateFamilies = []string{
	"kronecker", "forestfire", "erdosrenyi", "grid", "ring_of_cliques", "caveman",
}

// GenerateRequest asks the server to synthesize a graph from one of the
// internal generator families (POST /v1/graphs/{name}/generate).
type GenerateRequest struct {
	// Family is one of GenerateFamilies.
	Family string `json:"family"`
	Seed   int64  `json:"seed,omitempty"`
	// Kronecker: Levels (2^Levels nodes) and Edges samples.
	Levels int `json:"levels,omitempty"`
	Edges  int `json:"edges,omitempty"`
	// Forest fire / Erdős–Rényi: N nodes, P burn/edge probability.
	N int     `json:"n,omitempty"`
	P float64 `json:"p,omitempty"`
	// Grid: Rows × Cols; ring_of_cliques / caveman: K cliques of CliqueN.
	Rows    int `json:"rows,omitempty"`
	Cols    int `json:"cols,omitempty"`
	K       int `json:"k,omitempty"`
	CliqueN int `json:"clique_n,omitempty"`
}

// Normalize defaults Seed to 1 so generation is deterministic for a
// given request payload.
func (r *GenerateRequest) Normalize() {
	if r.Seed == 0 {
		r.Seed = 1
	}
}

// Validate checks the family name and the family's required knobs.
// Server-side resource caps (max nodes/edges) are enforced separately.
func (r *GenerateRequest) Validate() error {
	switch r.Family {
	case "kronecker":
		if r.Levels < 0 || r.Edges < 0 {
			return Errorf(CodeInvalidArgument, "kronecker levels and edges must be >= 0")
		}
	case "forestfire":
		if r.N < 0 || r.P < 0 || r.P >= 1 {
			return Errorf(CodeInvalidArgument, "forestfire needs n >= 0 and p in [0,1)")
		}
	case "erdosrenyi":
		if r.N <= 0 || r.P <= 0 {
			return Errorf(CodeInvalidArgument, "erdosrenyi needs n > 0 and p > 0")
		}
	case "grid":
		if r.Rows <= 0 || r.Cols <= 0 {
			return Errorf(CodeInvalidArgument, "grid needs rows > 0 and cols > 0")
		}
	case "ring_of_cliques", "caveman":
		if r.K <= 0 || r.CliqueN <= 0 {
			return Errorf(CodeInvalidArgument, "%s needs k > 0 and clique_n > 0", r.Family)
		}
	default:
		return Errorf(CodeInvalidArgument, "unknown family %q", r.Family).
			WithDetail("families", GenerateFamilies)
	}
	return nil
}

// StreamCreateRequest opens an incremental edge-stream graph
// (POST /v1/graphs/{name}/stream).
type StreamCreateRequest struct {
	Nodes int `json:"nodes"`
}

func (r *StreamCreateRequest) Normalize() {}

func (r *StreamCreateRequest) Validate() error {
	if r.Nodes <= 0 {
		return Errorf(CodeInvalidArgument, "stream graph needs nodes > 0, got %d", r.Nodes)
	}
	return nil
}

// StreamEdge is one edge of a POSTed edge batch. Weight 0 means 1.
type StreamEdge struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w,omitempty"`
}

// EdgeBatchRequest appends edges to a streaming graph
// (POST /v1/graphs/{name}/edges).
type EdgeBatchRequest struct {
	Edges []StreamEdge `json:"edges"`
}

func (r *EdgeBatchRequest) Normalize() {}

// Validate rejects empty batches, negative endpoints and negative
// weights; endpoint upper bounds are checked server-side against the
// target graph's node count.
func (r *EdgeBatchRequest) Validate() error {
	if len(r.Edges) == 0 {
		return Errorf(CodeInvalidArgument, "edge batch is empty")
	}
	for i, e := range r.Edges {
		if e.U < 0 || e.V < 0 {
			return Errorf(CodeInvalidArgument, "edge %d (%d,%d) has a negative endpoint", i, e.U, e.V)
		}
		if e.W < 0 {
			return Errorf(CodeInvalidArgument, "edge %d (%d,%d) has negative weight %g", i, e.U, e.V, e.W)
		}
	}
	return nil
}

// EdgeBatchResponse is the append endpoint's reply.
type EdgeBatchResponse struct {
	Appended int `json:"appended"`
}

// DeleteResponse is the graph-delete endpoint's reply.
type DeleteResponse struct {
	Status string `json:"status"`
}

// HealthResponse is the reply of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	Commit        string  `json:"commit,omitempty"`
	GoVersion     string  `json:"go_version"`
	APIVersion    string  `json:"api_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}
