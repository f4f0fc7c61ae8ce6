// Package kernel is the shared compute core of every strongly-local
// diffusion in this repository (§3.3 of the paper): an epoch-stamped
// indexed sparse workspace — dense scratch arrays plus touched-node
// lists, reset in O(touched) — and the Diffuser strategies (ACL push,
// Spielman–Teng Nibble, the heat-kernel variant) that run on it.
//
// The legacy implementations kept sparse vectors as map[int]float64,
// paying a hash and an allocation per touched node in the innermost
// loop and iterating in randomized order. The workspace replaces the
// map with dense value arrays indexed by node id, validity tracked by
// an epoch counter per entry: an entry is live iff its stamp equals the
// plane's current epoch, so clearing the whole vector is a single
// epoch increment plus truncating the touched list — O(support), never
// O(n). Node ordering is deterministic everywhere (FIFO push order,
// ascending-id walk steps), so results are reproducible bit-for-bit.
//
// Workspaces are sized to one graph's node count and meant to be
// reused: a Pool (sync.Pool keyed per graph size) hands them out so
// steady-state serving allocates nothing on the hot path.
package kernel

import "sort"

// plane is one epoch-stamped sparse vector over nodes 0..n-1. An entry
// u is live iff stamp[u] == epoch; list holds the live ids in the order
// they were first touched. Dead entries keep stale values — readers
// must check the stamp (get does).
type plane struct {
	val   []float64
	stamp []uint32
	epoch uint32
	list  []int
}

func (pl *plane) init(n int) {
	pl.val = make([]float64, n)
	pl.stamp = make([]uint32, n)
	pl.epoch = 1
	pl.list = pl.list[:0]
}

// reset clears the vector in O(touched): bump the epoch, drop the list.
// On the (rare) uint32 wraparound every stamp is zeroed so no stale
// entry from 2^32 resets ago can appear live.
func (pl *plane) reset() {
	pl.list = pl.list[:0]
	pl.epoch++
	if pl.epoch == 0 {
		for i := range pl.stamp {
			pl.stamp[i] = 0
		}
		pl.epoch = 1
	}
}

// touch makes u live with value 0 if it is not live already.
func (pl *plane) touch(u int) {
	if pl.stamp[u] != pl.epoch {
		pl.stamp[u] = pl.epoch
		pl.val[u] = 0
		pl.list = append(pl.list, u)
	}
}

func (pl *plane) add(u int, x float64) {
	pl.touch(u)
	pl.val[u] += x
}

func (pl *plane) set(u int, x float64) {
	pl.touch(u)
	pl.val[u] = x
}

func (pl *plane) get(u int) float64 {
	if pl.stamp[u] == pl.epoch {
		return pl.val[u]
	}
	return 0
}

// kill removes u from the live set without an O(list) compaction of its
// own; the caller is responsible for dropping u from the list (the walk
// kernels rebuild the list during truncation). A killed entry re-added
// later goes through touch and rejoins the list.
func (pl *plane) kill(u int) {
	pl.stamp[u] = 0
}

// sortList orders the touched list ascending by node id, the canonical
// deterministic processing order of the walk kernels.
func (pl *plane) sortList() {
	sort.Ints(pl.list)
}

// fifo is an intrusive FIFO work queue with epoch-stamped membership:
// pushing an already-queued node is a no-op, exactly the inQueue map of
// the legacy push implementation without the map.
type fifo struct {
	buf  []int
	head int
	inQ  []uint32
	// epoch is shared with the queue's owner via reset; 0 marks
	// "not queued" (no live epoch is ever 0).
	epoch uint32
}

func (q *fifo) init(n int) {
	q.buf = q.buf[:0]
	q.head = 0
	q.inQ = make([]uint32, n)
	q.epoch = 1
}

func (q *fifo) reset() {
	q.buf = q.buf[:0]
	q.head = 0
	q.epoch++
	if q.epoch == 0 {
		for i := range q.inQ {
			q.inQ[i] = 0
		}
		q.epoch = 1
	}
}

// push enqueues u unless it is already queued.
func (q *fifo) push(u int) {
	if q.inQ[u] == q.epoch {
		return
	}
	q.inQ[u] = q.epoch
	q.buf = append(q.buf, u)
}

// pop dequeues the oldest node, reporting false when the queue is empty.
func (q *fifo) pop() (int, bool) {
	if q.head >= len(q.buf) {
		return 0, false
	}
	u := q.buf[q.head]
	q.head++
	q.inQ[u] = 0
	return u, true
}

// Workspace is the reusable scratch state for one diffusion on one
// graph: the P plane holds the method's primary output, the R plane the
// push residual (or the live walk distribution mid-flight), the s plane
// is the walk kernels' step target, and q is the push work queue. sweep
// is the scratch of the sweep over a finished plane (sweep.go): the
// support as sorted (value, node) pairs. All state resets in
// O(touched); a Workspace is not safe for concurrent use, but is safe
// to reuse serially forever.
type Workspace struct {
	n       int
	p, r, s plane
	q       fifo
	sweep   []sweepPair
}

// NewWorkspace allocates a workspace for graphs with n nodes.
func NewWorkspace(n int) *Workspace {
	ws := &Workspace{n: n}
	ws.p.init(n)
	ws.r.init(n)
	ws.s.init(n)
	ws.q.init(n)
	return ws
}

// N returns the node count the workspace is sized for.
func (ws *Workspace) N() int { return ws.n }

// Reset clears every plane and the queue in O(touched).
func (ws *Workspace) Reset() {
	ws.p.reset()
	ws.r.reset()
	ws.s.reset()
	ws.q.reset()
}

// P returns the output-plane value at u (0 when untouched).
func (ws *Workspace) P(u int) float64 { return ws.p.get(u) }

// R returns the residual-plane value at u (0 when untouched).
func (ws *Workspace) R(u int) float64 { return ws.r.get(u) }

// ForEachP calls fn for every node with a nonzero output value, in the
// order the nodes were first touched (deterministic for a given run).
func (ws *Workspace) ForEachP(fn func(u int, x float64)) {
	for _, u := range ws.p.list {
		if x := ws.p.val[u]; x != 0 {
			fn(u, x)
		}
	}
}

// ForEachR is ForEachP for the residual plane.
func (ws *Workspace) ForEachR(fn func(u int, x float64)) {
	for _, u := range ws.r.list {
		if x := ws.r.val[u]; x != 0 {
			fn(u, x)
		}
	}
}

// PSupport returns the number of nonzero output entries.
func (ws *Workspace) PSupport() int {
	n := 0
	for _, u := range ws.p.list {
		if ws.p.val[u] != 0 {
			n++
		}
	}
	return n
}

// RSupport returns the number of nonzero residual entries.
func (ws *Workspace) RSupport() int {
	n := 0
	for _, u := range ws.r.list {
		if ws.r.val[u] != 0 {
			n++
		}
	}
	return n
}

// PSum returns the total mass of the output plane.
func (ws *Workspace) PSum() float64 {
	var s float64
	for _, u := range ws.p.list {
		s += ws.p.val[u]
	}
	return s
}

// RSum returns the total mass of the residual plane.
func (ws *Workspace) RSum() float64 {
	var s float64
	for _, u := range ws.r.list {
		s += ws.r.val[u]
	}
	return s
}
