//go:build race

package service

// Under the race detector sync.Pool drops a random share of Puts, so
// pooled buffers and scratch are rebuilt and grown on some requests and
// allocation counts stop measuring the code.
func init() { raceEnabled = true }
