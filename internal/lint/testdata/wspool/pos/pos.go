// Violations of the workspace pooling discipline: acquired
// workspaces that leak, are discarded, or are released without defer.
package fixture

import "repro/internal/kernel"

// Leak acquires and never releases.
func Leak(n int) int {
	ws := kernel.Acquire(n) // want `no matching deferred Release/Put`
	use(ws)
	return n
}

// LateRelease releases, but not via defer: the early return path and
// any panic in use() leak the workspace.
func LateRelease(n int, skip bool) {
	ws := kernel.Acquire(n) // want `not via defer`
	if skip {
		return
	}
	use(ws)
	kernel.Release(ws)
}

// Discard drops the result on the floor.
func Discard(n int) {
	kernel.Acquire(n) // want `not bound to a variable`
}

// PoolLeak leaks a per-graph pool workspace.
func PoolLeak(p *kernel.Pool) {
	ws := p.Get() // want `no matching deferred Release/Put`
	use(ws)
}

// ClosureLeak leaks inside a function literal; each literal is its
// own accounting scope.
func ClosureLeak(n int) func() {
	return func() {
		ws := kernel.Acquire(n) // want `no matching deferred Release/Put`
		use(ws)
	}
}

func use(*kernel.Workspace) {}
