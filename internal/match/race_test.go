//go:build race

package match

// raceEnabled: under the race detector sync.Pool drops a share of what is put
// back, so entry points that draw a pooled context allocate a fresh one.
const raceEnabled = true
