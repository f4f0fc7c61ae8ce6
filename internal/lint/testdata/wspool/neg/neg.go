// Sanctioned pooling patterns: deferred release (direct or inside a
// deferred closure) and ownership transfer out of the acquiring
// function.
package fixture

import "repro/internal/kernel"

// DeferredPut is the canonical pattern from docs/kernel.md.
func DeferredPut(p *kernel.Pool) {
	ws := p.Get()
	defer p.Put(ws)
	use(ws)
}

// DeferredClosure releases inside a deferred literal.
func DeferredClosure(p *kernel.Pool) {
	ws := p.Get()
	defer func() { p.Put(ws) }()
	use(ws)
}

// TransferReturn hands ownership to the caller, which releases.
func TransferReturn(p *kernel.Pool) *kernel.Workspace {
	ws := p.Get()
	return ws
}

// TransferDirect returns the Get result directly.
func TransferDirect(p *kernel.Pool) *kernel.Workspace {
	return p.Get()
}

// holder retains a workspace across calls; storing into it transfers
// ownership to the holder's lifecycle.
type holder struct{ ws *kernel.Workspace }

// TransferStruct stores the workspace in a struct it returns.
func TransferStruct(p *kernel.Pool) *holder {
	ws := p.Get()
	return &holder{ws: ws}
}

// TransferField stores the workspace into an existing struct.
func TransferField(h *holder, p *kernel.Pool) {
	ws := p.Get()
	h.ws = ws
}

func use(*kernel.Workspace) {}
