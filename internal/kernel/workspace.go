// Package kernel is the shared compute core of every strongly-local
// diffusion in this repository (§3.3 of the paper): an epoch-stamped
// indexed sparse workspace — dense per-node records plus touched-node
// lists, reset in O(touched) — and the Diffuser strategies (ACL push,
// Spielman–Teng Nibble, the heat-kernel variant) that run on it.
//
// The legacy implementations kept sparse vectors as map[int]float64,
// paying a hash and an allocation per touched node in the innermost
// loop and iterating in randomized order. The workspace replaces the
// map with a dense array of 16-byte records indexed by node id — the
// value, an epoch stamp, and the push queue's mark in what would be
// padding — so the push reads everything it needs of a neighbour on
// one cache line. An entry is live iff its stamp equals the plane's
// current epoch, so clearing the whole vector is a single epoch
// increment plus truncating the touched list — O(support), never O(n).
// Node ordering is deterministic everywhere (FIFO push order,
// ascending-id walk steps), so results are reproducible bit-for-bit.
//
// A workspace has a capacity, which sizes its planes and bit set, and
// serves one graph of at most that many nodes at a time. Workspaces are
// meant to be reused: a Pool, the handle NewPool(n) returns for an
// n-node graph, borrows them from a process-wide cache of size classes
// (eight per doubling of capacity, each at most an eighth above the
// node counts it serves), so steady-state serving allocates nothing on
// the hot path and a newly sealed graph reuses the workspaces of any
// earlier graph of its size class. A workspace holds 32 bytes per unit
// of capacity until it first runs a walk, which allocates the walk's
// scratch plane (48 bytes from then on), plus a one-bit-per-node set
// for the sweep.
package kernel

import "sort"

// cell is one node's record in a plane: its value, its epoch stamp,
// and the push queue's mark. The mark fills what would be the stamp's
// padding, so a push reads and writes a neighbour's residual, its
// liveness and its queue membership on one cache line.
type cell struct {
	val   float64
	stamp uint32
	inQ   uint32
}

// plane is one epoch-stamped sparse vector over nodes 0..n-1. An entry
// u is live iff c[u].stamp == epoch; list holds the live ids in the
// order they were first touched. Dead entries keep stale values —
// readers must check the stamp (get does).
type plane struct {
	c     []cell
	epoch uint32
	list  []int
}

func (pl *plane) init(n int) {
	pl.c = make([]cell, n)
	pl.epoch = 1
	pl.list = pl.list[:0]
}

// reset clears the vector in O(touched): bump the epoch, drop the list.
// On the (rare) uint32 wraparound every record is zeroed, stamps and
// queue marks alike, so nothing from 2^32 resets ago can appear live or
// queued.
func (pl *plane) reset() {
	pl.list = pl.list[:0]
	pl.epoch++
	if pl.epoch == 0 {
		clear(pl.c)
		pl.epoch = 1
	}
}

// touch makes u live with value 0 if it is not live already and
// returns its record.
func (pl *plane) touch(u int) *cell {
	c := &pl.c[u]
	if c.stamp != pl.epoch {
		c.stamp = pl.epoch
		c.val = 0
		pl.list = append(pl.list, u)
	}
	return c
}

func (pl *plane) add(u int, x float64) { pl.touch(u).val += x }

func (pl *plane) set(u int, x float64) { pl.touch(u).val = x }

func (pl *plane) get(u int) float64 {
	if c := &pl.c[u]; c.stamp == pl.epoch {
		return c.val
	}
	return 0
}

// kill removes u from the live set without an O(list) compaction of its
// own; the caller is responsible for dropping u from the list (the walk
// kernels rebuild the list during truncation). A killed entry re-added
// later goes through touch and rejoins the list.
func (pl *plane) kill(u int) {
	pl.c[u].stamp = 0
}

// sortList orders the touched list ascending by node id, the canonical
// deterministic processing order of the walk kernels.
func (pl *plane) sortList() {
	sort.Ints(pl.list)
}

// fifo is an intrusive FIFO work queue with membership marked in the
// records of the workspace's R plane: u is queued iff its inQ equals
// R's epoch, so pushing an already-queued node is a no-op — the
// inQueue map of the legacy push implementation without the map — and
// R's reset un-queues everything with its stamps. pop writes 0, which
// no live epoch ever is.
type fifo struct {
	buf  []int
	head int
	res  *plane // always &Workspace.r, whichever records the swaps left there
}

func (q *fifo) reset() {
	q.buf = q.buf[:0]
	q.head = 0
}

// push enqueues u unless it is already queued. At most n nodes are
// queued at once, so a full buffer more than half popped slides its
// live tail to the front instead of growing: a push run of any length
// keeps the buffer O(n).
func (q *fifo) push(u int) {
	c := &q.res.c[u]
	if c.inQ == q.res.epoch {
		return
	}
	c.inQ = q.res.epoch
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, u)
}

// pop dequeues the oldest node, reporting false when the queue is empty.
func (q *fifo) pop() (int, bool) {
	if q.head >= len(q.buf) {
		return 0, false
	}
	u := q.buf[q.head]
	q.head++
	q.res.c[u].inQ = 0
	return u, true
}

// Workspace is the reusable scratch state for one diffusion on one
// graph: the P plane holds the method's primary output, the R plane the
// push residual (or the live walk distribution mid-flight), the s plane
// is the walk kernels' step target, and q is the push work queue. s is
// allocated by the first walk step, so a workspace that only ever
// pushes holds two records, 32 bytes, per node of capacity (48 once it
// has walked). The rest is sweep scratch (sweep.go): the support as
// sorted (key, node) pairs, the radix sort's second buffer, and inS,
// the one-bit-per-node prefix-membership set of a scan (and the
// duplicate check of SweepOrderList). Every plane and inS are sized by
// the capacity; n, the node count of the graph the workspace currently
// serves, bounds every node id. All state resets in O(touched); a
// Workspace is not safe for concurrent use, but is safe to reuse
// serially forever.
type Workspace struct {
	n          int // node count of the served graph, at most the capacity
	p, r, s    plane
	q          fifo
	inS        []uint64
	sweep, tmp []sweepPair
}

// NewWorkspace allocates a workspace for graphs with n nodes, of
// capacity n.
func NewWorkspace(n int) *Workspace {
	ws := &Workspace{n: n, inS: make([]uint64, (n+63)/64)}
	ws.p.init(n)
	ws.r.init(n)
	ws.q.res = &ws.r
	return ws
}

// capacity returns the node count the workspace's planes are sized for.
func (ws *Workspace) capacity() int { return len(ws.p.c) }

// Reset clears every plane and the queue in O(touched).
func (ws *Workspace) Reset() {
	ws.p.reset()
	ws.r.reset()
	ws.s.reset()
	ws.q.reset()
}

// ForEachP calls fn for every node with a nonzero output value, in the
// order the nodes were first touched (deterministic for a given run).
func (ws *Workspace) ForEachP(fn func(u int, x float64)) {
	for _, u := range ws.p.list {
		if x := ws.p.c[u].val; x != 0 {
			fn(u, x)
		}
	}
}

// PSupport returns the number of nonzero output entries.
func (ws *Workspace) PSupport() int {
	n := 0
	for _, u := range ws.p.list {
		if ws.p.c[u].val != 0 {
			n++
		}
	}
	return n
}

// PSum returns the total mass of the output plane.
func (ws *Workspace) PSum() float64 {
	var s float64
	for _, u := range ws.p.list {
		s += ws.p.c[u].val
	}
	return s
}
