package kernel

import (
	"math/bits"
	"sync"
)

// classBits sets the size classes' spacing: 1<<classBits classes per
// doubling of capacity, so a class's capacity exceeds any node count it
// serves by less than n/(1<<classBits), an eighth of n.
const classBits = 3

// classes is the process-wide workspace cache: classes[c] holds idle
// workspaces of class c's capacity, shared by every graph whose node
// count rounds up to it. A graph that is sealed, replaced or reloaded
// borrows the warm workspaces its predecessors of the same class put
// back, so its first query pays no O(n) allocation. The array is fixed
// and covers every int: there is no map, lock or registry to grow, and
// every GC empties it like any sync.Pool.
var classes [(bits.UintSize - classBits) << classBits]sync.Pool

// sizeClass returns the index and capacity of an n-node graph's size
// class. Up to 2<<classBits nodes the capacity is n itself; above, it is
// n rounded up to a multiple of 1/(1<<classBits) of the power of two
// below n, so powers of two are classes of their own.
func sizeClass(n int) (c, capacity int) {
	n = max(n, 1)
	shift := max(bits.Len(uint(n-1))-classBits-1, 0)
	m := (n-1)>>shift + 1 // at most 2<<classBits, above 1<<classBits once shift > 0
	return shift<<classBits + m - 1, m << shift
}

// Pool is one graph's handle on the workspace cache: it keeps only the
// graph's node count, and hands out workspaces of its size class set to
// serve that count. With W concurrent users of a class at most W of its
// workspaces are ever live, and steady-state Get/Put pairs allocate
// nothing. The serving layer takes one per query, for the graph it
// reads; the batch layers create one per run and share it across their
// par workers, one workspace per worker.
type Pool struct {
	n int
}

// NewPool returns the workspace handle for n-node graphs.
func NewPool(n int) *Pool { return &Pool{n: n} }

// N returns the node count the pool's workspaces serve.
func (p *Pool) N() int { return p.n }

// Get returns a reset workspace for the pool's node count, taken from
// its size class or allocated at the class capacity.
func (p *Pool) Get() *Workspace {
	c, capacity := sizeClass(p.n)
	ws, _ := classes[c].Get().(*Workspace)
	if ws == nil {
		ws = NewWorkspace(capacity)
	}
	ws.n = p.n
	ws.Reset()
	return ws
}

// Put returns a workspace to the size class whose capacity it has. A
// workspace of any other capacity, such as one made by NewWorkspace for
// a graph of 3000 nodes (class capacity 3072), is dropped.
func (p *Pool) Put(ws *Workspace) {
	if ws == nil {
		return
	}
	if c, capacity := sizeClass(ws.capacity()); capacity == ws.capacity() {
		classes[c].Put(ws)
	}
}
