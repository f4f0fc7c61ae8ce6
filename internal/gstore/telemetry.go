package gstore

import "sync/atomic"

// Stats are the storage engine's process-wide telemetry: how many
// bytes are memory-mapped right now, how often mapped graphs were
// released by the GC finalizer instead of an explicit Close (the
// Delete path's deliberate deferred unmap), and how much time the
// verified snapshot opens spent revalidating CSR invariants.
// Everything is an atomic, so recording from concurrent opens, closes,
// finalizers and queries needs no lock; graphd renders the values on
// /metrics as the graphd_gstore_* families.
//
// The counters are package-global rather than per-store because the
// resources they meter are process-global: a mapping's pages and a
// finalizer's goroutine belong to the process, not to any one
// GraphStore (and the finalizer path has no store to report to).
type Stats struct {
	mappedBytes     atomic.Int64
	mappedGraphs    atomic.Int64
	finalizerUnmaps atomic.Uint64
	openVerifies    atomic.Uint64
	openVerifyNanos atomic.Uint64
}

var stats Stats

// Telemetry exposes the live storage counters.
func Telemetry() *Stats { return &stats }

// NoteMapped records a mapping of n bytes entering service. The
// matching NoteUnmapped runs from the mapped graph's closer (explicit
// Close or finalizer), so the gauge pair tracks live mappings exactly.
func (s *Stats) NoteMapped(n int64) {
	s.mappedBytes.Add(n)
	s.mappedGraphs.Add(1)
}

// NoteUnmapped records a mapping of n bytes leaving service.
func (s *Stats) NoteUnmapped(n int64) {
	s.mappedBytes.Add(-n)
	s.mappedGraphs.Add(-1)
}

// noteFinalizerUnmap records a mapped graph released by its GC
// finalizer rather than an explicit Close.
func (s *Stats) noteFinalizerUnmap() { s.finalizerUnmaps.Add(1) }

// noteOpenVerify records one NewCompactFromParts validation pass.
func (s *Stats) noteOpenVerify(nanos int64) {
	s.openVerifies.Add(1)
	if nanos > 0 {
		s.openVerifyNanos.Add(uint64(nanos))
	}
}

// MappedBytes returns the bytes currently memory-mapped.
func (s *Stats) MappedBytes() int64 { return s.mappedBytes.Load() }

// MappedGraphs returns the number of live mapped graphs.
func (s *Stats) MappedGraphs() int64 { return s.mappedGraphs.Load() }

// FinalizerUnmaps returns how many mappings the GC finalizer released.
func (s *Stats) FinalizerUnmaps() uint64 { return s.finalizerUnmaps.Load() }

// OpenVerifies returns how many compact opens ran full validation.
func (s *Stats) OpenVerifies() uint64 { return s.openVerifies.Load() }

// OpenVerifySeconds returns the cumulative validation time in seconds.
func (s *Stats) OpenVerifySeconds() float64 {
	return float64(s.openVerifyNanos.Load()) / 1e9
}
