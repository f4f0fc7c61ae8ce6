package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/pkg/api"
	"repro/pkg/client"
)

// command runs one graphctl subcommand over the SDK.
type command func(ctx context.Context, c *client.Client, args []string) error

var commands = map[string]command{
	"health":       cmdHealth,
	"metrics":      cmdMetrics,
	"graphs":       cmdGraphs,
	"graph":        cmdGraph,
	"load":         cmdLoad,
	"generate":     cmdGenerate,
	"stream":       cmdStream,
	"edges":        cmdEdges,
	"seal":         cmdSeal,
	"stats":        cmdStats,
	"delete":       cmdDelete,
	"ppr":          cmdPPR,
	"ppr-batch":    cmdPPRBatch,
	"localcluster": cmdLocalCluster,
	"diffuse":      cmdDiffuse,
	"sweepcut":     cmdSweepCut,
	"jobs":         cmdJobs,
	"job":          cmdJob,
	"debug":        cmdDebug,
	"ncp":          cmdNCP,
	"partition":    cmdPartition,
}

// flags builds a subcommand flag set named name.
func flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// name pops the leading positional <name> argument.
func name(fs *flag.FlagSet, args []string, usage string) (string, []string, error) {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return "", nil, fmt.Errorf("usage: graphctl %s", usage)
	}
	return args[0], args[1:], nil
}

// seedsFlag parses "-seeds 0,5,7" into a node-id list.
type seedsFlag []int

func (s *seedsFlag) String() string {
	parts := make([]string, len(*s))
	for i, v := range *s {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func (s *seedsFlag) Set(v string) error {
	*s = nil
	for _, part := range strings.Split(v, ",") {
		u, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("seed %q is not a node id", part)
		}
		*s = append(*s, u)
	}
	return nil
}

// openArg opens a file argument, with "-" meaning stdin.
func openArg(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

func cmdHealth(ctx context.Context, c *client.Client, args []string) error {
	h, err := c.Health(ctx)
	if err != nil {
		return err
	}
	return emit(h, func() {
		fmt.Printf("%s: %s (api %s, %s, go %s, up %.0fs)\n",
			c.BaseURL(), h.Status, h.APIVersion, versionLine(h), h.GoVersion, h.UptimeSeconds)
	})
}

func versionLine(h api.HealthResponse) string {
	if h.Commit != "" {
		return h.Version + "@" + h.Commit
	}
	return h.Version
}

func cmdMetrics(ctx context.Context, c *client.Client, args []string) error {
	text, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}

func cmdGraphs(ctx context.Context, c *client.Client, args []string) error {
	graphs, err := c.Graphs.List(ctx)
	if err != nil {
		return err
	}
	return emit(api.GraphList{Graphs: graphs}, func() {
		if len(graphs) == 0 {
			fmt.Println("no graphs")
			return
		}
		fmt.Printf("%-24s %-10s %10s %12s %14s\n", "NAME", "STATE", "NODES", "EDGES", "VOLUME")
		for _, g := range graphs {
			fmt.Printf("%-24s %-10s %10d %12d %14.0f\n", g.Name, g.State, g.Nodes, g.Edges, g.Volume)
		}
	})
}

// cmdGraph is the per-graph verb family: get (descriptive record incl.
// persistence state), export (download the binary GSNAP snapshot) and
// import (upload one), mirroring the job <verb> command shape.
func cmdGraph(ctx context.Context, c *client.Client, args []string) error {
	usage := "usage: graphctl graph <get|export|import> <name> [file|-]"
	if len(args) < 2 {
		return fmt.Errorf("%s", usage)
	}
	verb, g, rest := args[0], args[1], args[2:]
	switch verb {
	case "get":
		info, err := c.Graphs.Get(ctx, g)
		if err != nil {
			return err
		}
		return emit(info, func() {
			fmt.Printf("%s: state=%s n=%d m=%d vol=%.0f persistence=%s",
				info.Name, info.State, info.Nodes, info.Edges, info.Volume, info.Persistence)
			if info.Backend != "" {
				fmt.Printf(" backend=%s", info.Backend)
			}
			fmt.Println()
		})
	case "export":
		if len(rest) != 1 {
			return fmt.Errorf("usage: graphctl graph export <name> <file|->")
		}
		var w io.Writer = os.Stdout
		var f *os.File
		if rest[0] != "-" {
			var err error
			if f, err = os.Create(rest[0]); err != nil {
				return err
			}
			w = f
		}
		n, err := c.Graphs.Export(ctx, g, w)
		if f != nil {
			if cerr := f.Close(); err == nil && cerr != nil {
				return cerr
			}
		}
		if err != nil {
			return err
		}
		if rest[0] != "-" && !asJSON {
			fmt.Printf("exported %s: %d bytes to %s\n", g, n, rest[0])
		}
		return nil
	case "import":
		fs := flags("graph import")
		backend := fs.String("backend", "", "storage backend override: compact or mmap")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: graphctl graph import <name> [-backend B] <file|->")
		}
		rc, err := openArg(fs.Arg(0))
		if err != nil {
			return err
		}
		defer rc.Close()
		info, err := c.Graphs.Import(ctx, g, rc, backendOpts(*backend)...)
		if err != nil {
			return err
		}
		return emitGraphInfo(info, "imported")
	default:
		return fmt.Errorf("unknown graph verb %q (want get|export|import)\n%s", verb, usage)
	}
}

func cmdLoad(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("load")
	backend := fs.String("backend", "", "storage backend override: compact or mmap")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: graphctl load [-backend B] <name> <edgelist-file>")
	}
	info, err := c.Graphs.LoadFile(ctx, fs.Arg(0), fs.Arg(1), backendOpts(*backend)...)
	if err != nil {
		return err
	}
	return emitGraphInfo(info, "loaded")
}

func cmdGenerate(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("generate")
	var req api.GenerateRequest
	fs.StringVar(&req.Family, "family", "kronecker", "generator family: "+strings.Join(api.GenerateFamilies, "|"))
	fs.Int64Var(&req.Seed, "seed", 1, "generator RNG seed")
	fs.IntVar(&req.Levels, "levels", 0, "kronecker recursion levels (2^levels nodes)")
	fs.IntVar(&req.Edges, "edges", 0, "kronecker edge samples")
	fs.IntVar(&req.N, "n", 0, "forestfire/erdosrenyi node count")
	fs.Float64Var(&req.P, "p", 0, "forestfire burn / erdosrenyi edge probability")
	fs.IntVar(&req.Rows, "rows", 0, "grid rows")
	fs.IntVar(&req.Cols, "cols", 0, "grid cols")
	fs.IntVar(&req.K, "k", 0, "ring_of_cliques/caveman clique count")
	fs.IntVar(&req.CliqueN, "clique-n", 0, "ring_of_cliques/caveman clique size")
	backend := fs.String("backend", "", "storage backend override: compact or mmap")
	g, rest, err := name(fs, args, "generate <name> [flags]")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	info, err := c.Graphs.Generate(ctx, g, req, backendOpts(*backend)...)
	if err != nil {
		return err
	}
	return emitGraphInfo(info, "generated")
}

func cmdStream(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("stream")
	nodes := fs.Int("nodes", 0, "node count of the streaming graph")
	g, rest, err := name(fs, args, "stream <name> -nodes N")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	info, err := c.Graphs.Stream(ctx, g, *nodes)
	if err != nil {
		return err
	}
	return emitGraphInfo(info, "streaming")
}

func cmdEdges(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("edges")
	batch := fs.Int("batch", 10000, "edges per append request")
	g, rest, err := name(fs, args, "edges <name> <file|->")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: graphctl edges <name> <file|->")
	}
	rc, err := openArg(fs.Arg(0))
	if err != nil {
		return err
	}
	defer rc.Close()
	edges, err := readStreamEdges(rc)
	if err != nil {
		return err
	}
	total := 0
	for start := 0; start < len(edges); start += *batch {
		end := min(start+*batch, len(edges))
		n, err := c.Graphs.AppendEdges(ctx, g, edges[start:end])
		if err != nil {
			return fmt.Errorf("after %d edges: %w", total, err)
		}
		total += n
	}
	return emit(api.EdgeBatchResponse{Appended: total}, func() {
		fmt.Printf("appended %d edges to %s\n", total, g)
	})
}

// readStreamEdges parses "u v [w]" lines ('#'/'%' comments, blank lines
// skipped) into the wire edge type.
func readStreamEdges(r io.Reader) ([]api.StreamEdge, error) {
	var out []api.StreamEdge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("line %d: want 'u v [w]', got %q", line, text)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("line %d: bad node ids in %q", line, text)
		}
		e := api.StreamEdge{U: u, V: v}
		if len(fields) == 3 {
			w, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad weight in %q", line, text)
			}
			e.W = w
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func cmdSeal(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("seal")
	g, rest, err := name(fs, args, "seal <name>")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	info, err := c.Graphs.Seal(ctx, g)
	if err != nil {
		return err
	}
	return emitGraphInfo(info, "sealed")
}

func cmdStats(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("stats")
	g, rest, err := name(fs, args, "stats <name>")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	st, err := c.Graphs.Stats(ctx, g)
	if err != nil {
		return err
	}
	return emit(st, func() {
		fmt.Printf("%s: n=%d m=%d vol=%.0f degree[min=%.0f avg=%.2f max=%.0f] isolated=%d\n",
			st.Name, st.Nodes, st.Edges, st.Volume, st.MinDegree, st.AvgDegree, st.MaxDegree, st.Isolated)
	})
}

func cmdDelete(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("delete")
	g, rest, err := name(fs, args, "delete <name>")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if err := c.Graphs.Delete(ctx, g); err != nil {
		return err
	}
	return emit(api.DeleteResponse{Status: "deleted"}, func() {
		fmt.Printf("deleted %s\n", g)
	})
}

func cmdPPR(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("ppr")
	var req api.PPRRequest
	var seeds seedsFlag
	fs.Var(&seeds, "seeds", "comma-separated seed node ids")
	fs.Float64Var(&req.Alpha, "alpha", 0, "teleportation (default 0.15)")
	fs.Float64Var(&req.Eps, "eps", 0, "push tolerance (default 1e-4)")
	fs.IntVar(&req.TopK, "topk", 0, "entries to return (default 100)")
	fs.BoolVar(&req.Sweep, "sweep", false, "also sweep the vector for the best cut")
	work := fs.Bool("work", false, "request the kernel work accounting (?debug=work)")
	g, rest, err := name(fs, args, "ppr <name> -seeds 0[,..] [flags]")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	req.Seeds = seeds
	res, err := c.Graphs.PPR(ctx, g, req, queryOpts(*work)...)
	if err != nil {
		return err
	}
	return emit(res, func() {
		fmt.Printf("ppr on %s: support=%d sum=%.4f pushes=%d work=%.0f\n",
			g, res.Support, res.Sum, res.Pushes, res.WorkVolume)
		printTop(res.Top, 10)
		if res.Sweep != nil {
			fmt.Printf("sweep: %d nodes at phi=%.4f (prefix %d)\n",
				res.Sweep.Size, res.Sweep.Conductance, res.Sweep.Prefix)
		}
		printWork(res.Work)
	})
}

func cmdPPRBatch(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("ppr-batch")
	var req api.PPRBatchRequest
	var seeds seedsFlag
	fs.Var(&seeds, "seeds", "comma-separated seed node ids, one diffusion each")
	fs.Float64Var(&req.Alpha, "alpha", 0, "teleportation (default 0.15)")
	fs.Float64Var(&req.Eps, "eps", 0, "push tolerance (default 1e-4)")
	fs.IntVar(&req.TopK, "topk", 0, "entries to return per seed (default 100)")
	fs.BoolVar(&req.Sweep, "sweep", false, "also sweep each vector for its best cut")
	work := fs.Bool("work", false, "request the kernel work accounting (?debug=work)")
	g, rest, err := name(fs, args, "ppr-batch <name> -seeds 0,1[,..] [flags]")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	req.Seeds = seeds
	res, err := c.Graphs.PPRBatch(ctx, g, req, queryOpts(*work)...)
	if err != nil {
		return err
	}
	return emit(res, func() {
		fmt.Printf("ppr-batch on %s: %d seeds, total work=%.0f\n", g, len(res.Results), res.TotalWork)
		for _, r := range res.Results {
			fmt.Printf("  seed %d: support=%d sum=%.4f pushes=%d work=%.0f\n",
				r.Seed, r.Support, r.Sum, r.Pushes, r.WorkVolume)
			if r.Sweep != nil {
				fmt.Printf("    sweep: %d nodes at phi=%.4f (prefix %d)\n",
					r.Sweep.Size, r.Sweep.Conductance, r.Sweep.Prefix)
			}
		}
		printWork(res.Work)
	})
}

func cmdLocalCluster(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("localcluster")
	var req api.LocalClusterRequest
	var seeds seedsFlag
	fs.Var(&seeds, "seeds", "comma-separated seed node ids")
	fs.StringVar(&req.Method, "method", "", "ppr | nibble | heat (default ppr)")
	fs.Float64Var(&req.Alpha, "alpha", 0, "ppr teleportation (default 0.15)")
	fs.Float64Var(&req.Eps, "eps", 0, "truncation threshold (default 1e-4)")
	fs.IntVar(&req.Steps, "steps", 0, "nibble walk steps (default 20)")
	fs.Float64Var(&req.T, "t", 0, "heat-kernel time (default 5)")
	work := fs.Bool("work", false, "request the kernel work accounting (?debug=work)")
	g, rest, err := name(fs, args, "localcluster <name> -seeds 0[,..] [flags]")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	req.Seeds = seeds
	res, err := c.Graphs.LocalCluster(ctx, g, req, queryOpts(*work)...)
	if err != nil {
		return err
	}
	return emit(res, func() {
		fmt.Printf("%s on %s: %d-node cluster at phi=%.4f (vol %.0f, support %d)\n",
			res.Method, g, res.Size, res.Conductance, res.Volume, res.Support)
		printWork(res.Work)
	})
}

func cmdDiffuse(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("diffuse")
	var req api.DiffuseRequest
	var seeds seedsFlag
	fs.Var(&seeds, "seeds", "comma-separated seed node ids")
	fs.StringVar(&req.Kind, "kind", "", "heat | ppr | lazy (default heat)")
	fs.Float64Var(&req.T, "t", 0, "heat time (default 3)")
	fs.Float64Var(&req.Gamma, "gamma", 0, "ppr teleportation (default 0.15)")
	fs.Float64Var(&req.Alpha, "alpha", 0, "lazy-walk laziness (default 0.5)")
	fs.IntVar(&req.K, "k", 0, "lazy-walk steps (default 10)")
	fs.IntVar(&req.TopK, "topk", 0, "entries to return (default 100)")
	work := fs.Bool("work", false, "request the work accounting (?debug=work)")
	g, rest, err := name(fs, args, "diffuse <name> -seeds 0[,..] [flags]")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	req.Seeds = seeds
	res, err := c.Graphs.Diffuse(ctx, g, req, queryOpts(*work)...)
	if err != nil {
		return err
	}
	return emit(res, func() {
		fmt.Printf("%s diffusion on %s: sum=%.4f\n", res.Kind, g, res.Sum)
		printTop(res.Top, 10)
		printWork(res.Work)
	})
}

// queryOpts maps the -work flag onto the SDK's per-call options.
func queryOpts(work bool) []client.QueryOption {
	if work {
		return []client.QueryOption{client.WithWorkStats()}
	}
	return nil
}

// printWork renders the optional work block of a query response.
func printWork(w *api.WorkStats) {
	if w == nil {
		return
	}
	fmt.Printf("work: method=%s pushes=%d volume=%.0f support=%d",
		w.Method, w.Pushes, w.WorkVolume, w.MaxSupport)
	if w.Steps > 0 {
		fmt.Printf(" steps=%d", w.Steps)
	}
	if w.Terms > 0 {
		fmt.Printf(" terms=%d", w.Terms)
	}
	fmt.Println()
}

func cmdSweepCut(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("sweepcut")
	g, rest, err := name(fs, args, "sweepcut <name> <file|->")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: graphctl sweepcut <name> <file|->")
	}
	rc, err := openArg(fs.Arg(0))
	if err != nil {
		return err
	}
	defer rc.Close()
	values, err := readNodeMasses(rc)
	if err != nil {
		return err
	}
	res, err := c.Graphs.SweepCut(ctx, g, api.SweepCutRequest{Values: values})
	if err != nil {
		return err
	}
	return emit(res, func() {
		fmt.Printf("sweep on %s: %d nodes at phi=%.4f (prefix %d)\n",
			g, res.Size, res.Conductance, res.Prefix)
	})
}

// readNodeMasses parses "node mass" lines into the wire vector type.
func readNodeMasses(r io.Reader) ([]api.NodeMass, error) {
	var out []api.NodeMass
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: want 'node mass', got %q", line, text)
		}
		node, err1 := strconv.Atoi(fields[0])
		mass, err2 := strconv.ParseFloat(fields[1], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("line %d: bad entry %q", line, text)
		}
		out = append(out, api.NodeMass{Node: node, Mass: mass})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func cmdJobs(ctx context.Context, c *client.Client, args []string) error {
	jobs, err := c.Jobs.List(ctx)
	if err != nil {
		return err
	}
	return emit(api.JobList{Jobs: jobs}, func() {
		if len(jobs) == 0 {
			fmt.Println("no jobs")
			return
		}
		fmt.Printf("%-8s %-10s %-20s %-10s %10s  %s\n", "ID", "TYPE", "GRAPH", "STATUS", "RUN(ms)", "ERROR")
		for _, j := range jobs {
			fmt.Printf("%-8s %-10s %-20s %-10s %10.1f  %s\n",
				j.ID, j.Type, j.Graph, j.Status, j.RunTimeMS, j.Error)
		}
	})
}

func cmdJob(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: graphctl job <get|wait|result|cancel> <id>")
	}
	verb, id := args[0], args[1]
	switch verb {
	case "get":
		v, err := c.Jobs.Get(ctx, id)
		if err != nil {
			return err
		}
		return emitJobView(v)
	case "wait":
		v, err := waitWithProgress(ctx, c, id)
		if err != nil {
			return err
		}
		return emitJobView(v)
	case "result":
		raw, err := c.Jobs.ResultRaw(ctx, id)
		if err != nil {
			return err
		}
		fmt.Println(strings.TrimSpace(string(raw)))
		return nil
	case "cancel":
		v, err := c.Jobs.Cancel(ctx, id)
		if err != nil {
			return err
		}
		return emitJobView(v)
	default:
		return fmt.Errorf("unknown job verb %q (want get|wait|result|cancel)", verb)
	}
}

// cmdDebug is the observability verb family: "queries" dumps the
// server's recent-query trace ring, "metrics [prefix]" fetches the
// Prometheus exposition and pretty-prints it grouped by family.
func cmdDebug(ctx context.Context, c *client.Client, args []string) error {
	if len(args) >= 1 && args[0] == "metrics" {
		return debugMetrics(ctx, c, args[1:])
	}
	if len(args) != 1 || args[0] != "queries" {
		return fmt.Errorf("usage: graphctl debug queries | debug metrics [prefix]")
	}
	qs, err := c.DebugQueries(ctx)
	if err != nil {
		return err
	}
	return emit(api.DebugQueriesResponse{Queries: qs}, func() {
		if len(qs) == 0 {
			fmt.Println("no recent queries")
			return
		}
		fmt.Printf("%-22s %-30s %-16s %6s %-7s %9s  %s\n",
			"ID", "ROUTE", "GRAPH", "STATUS", "CACHE", "MS", "WORK")
		for _, q := range qs {
			work := ""
			if q.Work != nil {
				work = fmt.Sprintf("%s pushes=%d vol=%.0f", q.Work.Method, q.Work.Pushes, q.Work.WorkVolume)
			}
			fmt.Printf("%-22s %-30s %-16s %6d %-7s %9.2f  %s\n",
				q.ID, q.Route, q.Graph, q.Status, q.Cache, q.DurationMS, work)
		}
	})
}

// debugMetrics renders /metrics grouped by family, one header per
// metric with its TYPE, samples indented beneath it. An optional
// argument filters families by name prefix ("graphd_persist",
// "graphd_gstore", ...), which is the intended way to eyeball one
// subsystem's telemetry without the full exposition scrolling past.
func debugMetrics(ctx context.Context, c *client.Client, args []string) error {
	if len(args) > 1 {
		return fmt.Errorf("usage: graphctl debug metrics [prefix]")
	}
	prefix := ""
	if len(args) == 1 {
		prefix = args[0]
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	type family struct {
		name, typ string
		samples   []string
	}
	var fams []*family
	byName := map[string]*family{}
	get := func(name string) *family {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &family{name: name, typ: "untyped"}
		byName[name] = f
		fams = append(fams, f)
		return f
	}
	// A histogram's _bucket/_sum/_count samples belong to the base
	// family announced by the TYPE line.
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if t := strings.TrimSuffix(name, suf); t != name {
				if f, ok := byName[t]; ok && f.typ == "histogram" {
					return t
				}
			}
		}
		return name
	}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP"):
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) == 4 {
				get(fields[2]).typ = fields[3]
			}
		case strings.HasPrefix(line, "#"):
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i > 0 {
				name = line[:i]
			}
			f := get(base(name))
			f.samples = append(f.samples, line)
		}
	}
	shown := 0
	for _, f := range fams {
		if !strings.HasPrefix(f.name, prefix) || len(f.samples) == 0 {
			continue
		}
		shown++
		fmt.Printf("%s (%s)\n", f.name, f.typ)
		for _, s := range f.samples {
			fmt.Printf("  %s\n", s)
		}
	}
	if shown == 0 {
		return fmt.Errorf("no metric families match prefix %q", prefix)
	}
	return nil
}

func cmdNCP(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("ncp")
	var p api.NCPJobParams
	fs.StringVar(&p.Method, "method", "", "spectral | flow | both (default both)")
	fs.IntVar(&p.Seeds, "seeds", 0, "seeds per alpha scale (default 20)")
	fs.IntVar(&p.Workers, "workers", 0, "profile workers (default all CPUs)")
	fs.Int64Var(&p.BaseSeed, "base-seed", 0, "deterministic sampling seed (default 1)")
	g, rest, err := name(fs, args, "ncp <graph> [flags]")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	var res api.NCPJobResult
	view, err := submitAndWait(ctx, c, "ncp", g, &p, &res)
	if err != nil {
		return err
	}
	return emit(res, func() {
		fmt.Printf("ncp %s on %s (%.0fms): n=%d m=%d\n", view.ID, g, view.RunTimeMS, res.Nodes, res.EdgesM)
		printProfile("spectral", res.Spectral)
		printProfile("flow", res.Flow)
	})
}

func printProfile(label string, p *api.ProfileSummary) {
	if p == nil {
		return
	}
	fmt.Printf("%s profile: %d clusters, envelope:\n", label, p.Clusters)
	for _, pt := range p.Envelope {
		fmt.Printf("  size<=%-6d min phi = %.4f\n", pt.Size, pt.Conductance)
	}
}

func cmdPartition(ctx context.Context, c *client.Client, args []string) error {
	fs := flags("partition")
	var p api.PartitionJobParams
	fs.IntVar(&p.K, "k", 2, "number of parts")
	fs.Int64Var(&p.Seed, "seed", 0, "matching seed (default 1)")
	fs.BoolVar(&p.IncludeLabels, "labels", false, "include the per-node label vector")
	g, rest, err := name(fs, args, "partition <graph> -k K [flags]")
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	var res api.PartitionJobResult
	view, err := submitAndWait(ctx, c, "partition", g, &p, &res)
	if err != nil {
		return err
	}
	return emit(res, func() {
		fmt.Printf("partition %s on %s (%.0fms): k=%d max phi=%.4f\n",
			view.ID, g, view.RunTimeMS, res.K, res.MaxPhi)
		for _, part := range res.Parts {
			fmt.Printf("  part %d: %d nodes, vol %.0f, phi=%.4f\n",
				part.Label, part.Size, part.Volume, part.Conductance)
		}
	})
}

// submitAndWait is the shared job convenience path: build the typed
// submission, enqueue it, poll to terminal (rendering live progress to
// stderr), decode the typed result.
func submitAndWait(ctx context.Context, c *client.Client, jobType, graph string, params, out any) (api.JobView, error) {
	req, err := api.NewJob(jobType, graph, params)
	if err != nil {
		return api.JobView{}, err
	}
	view, err := c.Jobs.Submit(ctx, req)
	if err != nil {
		return api.JobView{}, err
	}
	if !asJSON {
		fmt.Fprintf(os.Stderr, "submitted %s job %s, waiting...\n", jobType, view.ID)
	}
	view, err = waitWithProgress(ctx, c, view.ID)
	if err != nil {
		return view, err
	}
	if view.Status != api.JobDone {
		return view, api.Errorf(api.CodeConflict, "job %s is %s: %s", view.ID, view.Status, view.Error)
	}
	return view, c.Jobs.Result(ctx, view.ID, out)
}

// waitWithProgress polls the job to a terminal state, repainting a
// single stderr line with the server-reported progress fraction while
// the job runs. In -json mode it degrades to a silent wait.
func waitWithProgress(ctx context.Context, c *client.Client, id string) (api.JobView, error) {
	if asJSON {
		return c.Jobs.Wait(ctx, id)
	}
	last := -1
	v, err := c.Jobs.WaitFunc(ctx, id, func(v api.JobView) {
		if v.Status != api.JobRunning {
			return
		}
		if pct := int(v.Progress * 100); pct != last {
			last = pct
			fmt.Fprintf(os.Stderr, "\rjob %s running: %3d%%", id, pct)
		}
	})
	if last >= 0 {
		fmt.Fprintln(os.Stderr)
	}
	return v, err
}

func printTop(top []api.NodeMass, limit int) {
	for i, nm := range top {
		if i >= limit {
			fmt.Printf("  ... %d more\n", len(top)-limit)
			return
		}
		fmt.Printf("  node %-8d %.6f\n", nm.Node, nm.Mass)
	}
}

func emitGraphInfo(info api.GraphInfo, verb string) error {
	return emit(info, func() {
		fmt.Printf("%s %s: state=%s n=%d m=%d vol=%.0f", verb, info.Name, info.State, info.Nodes, info.Edges, info.Volume)
		if info.Persistence != "" {
			fmt.Printf(" persistence=%s", info.Persistence)
		}
		if info.Backend != "" {
			fmt.Printf(" backend=%s", info.Backend)
		}
		fmt.Println()
	})
}

// backendOpts turns a -backend flag value into client create options.
func backendOpts(backend string) []client.CreateOption {
	if backend == "" {
		return nil
	}
	return []client.CreateOption{client.WithBackend(api.GraphBackend(backend))}
}

func emitJobView(v api.JobView) error {
	return emit(v, func() {
		fmt.Printf("job %s: type=%s graph=%s status=%s", v.ID, v.Type, v.Graph, v.Status)
		if v.Status == api.JobRunning && v.Progress > 0 {
			fmt.Printf(" progress=%.0f%%", 100*v.Progress)
		}
		if v.FromCache {
			fmt.Print(" (cached)")
		}
		if v.RunTimeMS > 0 {
			fmt.Printf(" run=%.1fms", v.RunTimeMS)
		}
		if v.Error != "" {
			fmt.Printf(" error=%q", v.Error)
		}
		fmt.Println()
	})
}
