// Sanctioned pooling patterns: deferred release (direct, via Pool,
// or inside a deferred closure) and ownership transfer out of the
// acquiring function.
package fixture

import "repro/internal/kernel"

// DeferredRelease is the canonical pattern from docs/kernel.md.
func DeferredRelease(n int) {
	ws := kernel.Acquire(n)
	defer kernel.Release(ws)
	use(ws)
}

// DeferredPut pairs Pool.Get with a deferred Put.
func DeferredPut(p *kernel.Pool) {
	ws := p.Get()
	defer p.Put(ws)
	use(ws)
}

// DeferredClosure releases inside a deferred literal.
func DeferredClosure(n int) {
	ws := kernel.Acquire(n)
	defer func() { kernel.Release(ws) }()
	use(ws)
}

// TransferReturn hands ownership to the caller, which releases.
func TransferReturn(n int) *kernel.Workspace {
	ws := kernel.Acquire(n)
	return ws
}

// TransferDirect returns the acquire result directly (the registry's
// own Acquire implementation has this shape).
func TransferDirect(n int) *kernel.Workspace {
	return kernel.Acquire(n)
}

// holder retains a workspace across calls; storing into it transfers
// ownership to the holder's lifecycle.
type holder struct{ ws *kernel.Workspace }

// TransferStruct stores the workspace in a struct it returns.
func TransferStruct(n int) *holder {
	ws := kernel.Acquire(n)
	return &holder{ws: ws}
}

// TransferField stores the workspace into an existing struct.
func TransferField(h *holder, n int) {
	ws := kernel.Acquire(n)
	h.ws = ws
}

func use(*kernel.Workspace) {}
