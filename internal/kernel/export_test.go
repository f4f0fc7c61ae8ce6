package kernel

// ForEachR is ForEachP for the residual plane. Only tests read the
// residual, so it is declared here, for the package's tests and the
// external kernel_test ones alike.
func (ws *Workspace) ForEachR(fn func(u int, x float64)) {
	for _, u := range ws.r.list {
		if x := ws.r.c[u].val; x != 0 {
			fn(u, x)
		}
	}
}
