//go:build race

package service

// Under the race detector sync.Pool drops a random share of what is
// put back, so pooled buffers are allocated afresh.
func init() { raceEnabled = true }
