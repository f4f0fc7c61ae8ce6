package gstore

import (
	"runtime"
	"time"

	"repro/internal/graph"
)

// NewCompactFromParts assembles a graph directly from raw arrays — the
// entry point of every snapshot reader (v1, the copying v2 decoder and
// the mmap path), and the one validator of CSR arrays from outside the
// program: graph.FromParts's checks, timed into the open-verify
// counters. A mapped graph (closer non-nil) also gets a finalizer that
// closes it.
func NewCompactFromParts(kind Kind, rowPtr []int64, adj []uint32, w32 []float32, w64 []float64, deg []float64, closer func() error) (*Compact, error) {
	verifyStart := time.Now()
	c, err := graph.FromParts(kind, rowPtr, adj, w32, w64, deg, closer)
	if err != nil {
		return nil, err
	}
	stats.noteOpenVerify(int64(time.Since(verifyStart)))
	if closer != nil {
		// GC backstop: a mapped graph whose last reference is dropped
		// without an explicit Close (the store's Delete path does this
		// deliberately — see GraphStore.Delete) is unmapped when it is
		// collected, so deleted graphs never pin their mappings for the
		// life of the process. Close is idempotent, so the finalizer
		// and an explicit Close cannot double-unmap.
		runtime.SetFinalizer(c, func(c *Compact) {
			stats.noteFinalizerUnmap()
			_ = c.Close()
		})
	}
	return c, nil
}
