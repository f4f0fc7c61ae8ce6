package kernel

import "sync"

// Pool hands out workspaces for graphs with one fixed node count,
// backed by a sync.Pool: with W concurrent users at most W workspaces
// are ever live, and steady-state Get/Put pairs allocate nothing. The
// serving layer keeps one Pool per loaded graph; the batch layers
// create one per run and share it across their par workers, one
// workspace per worker.
type Pool struct {
	n    int
	pool sync.Pool
}

// NewPool returns a pool of workspaces for n-node graphs.
func NewPool(n int) *Pool {
	p := &Pool{n: n}
	p.pool.New = func() any { return NewWorkspace(n) }
	return p
}

// N returns the node count the pool's workspaces are sized for.
func (p *Pool) N() int { return p.n }

// Get returns a reset workspace.
func (p *Pool) Get() *Workspace {
	ws := p.pool.Get().(*Workspace)
	ws.Reset()
	return ws
}

// Put returns a workspace to the pool. Workspaces of the wrong size
// (from another graph's pool) are dropped rather than poisoning this
// one.
func (p *Pool) Put(ws *Workspace) {
	if ws == nil || ws.n != p.n {
		return
	}
	p.pool.Put(ws)
}
