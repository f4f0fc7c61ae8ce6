// Violations of the workspace pooling discipline: pooled workspaces
// that leak, are discarded, or are released without defer.
package fixture

import "repro/internal/kernel"

// PoolLeak takes a workspace and never returns it.
func PoolLeak(p *kernel.Pool) {
	ws := p.Get() // want `no matching deferred Put`
	use(ws)
}

// LatePut returns the workspace, but not via defer: the early return
// path and any panic in use() leak it.
func LatePut(p *kernel.Pool, skip bool) {
	ws := p.Get() // want `not via defer`
	if skip {
		return
	}
	use(ws)
	p.Put(ws)
}

// Discard drops the result on the floor.
func Discard(p *kernel.Pool) {
	p.Get() // want `not bound to a variable`
}

// ClosureLeak leaks inside a function literal; each literal is its
// own accounting scope.
func ClosureLeak(p *kernel.Pool) func() {
	return func() {
		ws := p.Get() // want `no matching deferred Put`
		use(ws)
	}
}

func use(*kernel.Workspace) {}
