//go:build race

package kernel_test

// Under the race detector sync.Pool drops a random share of what is
// put back, so pooled runs allocate fresh workspaces.
func init() { raceEnabled = true }
