//go:build race

package table

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a quarter of its Puts at random, so a pooled path's steady-state
// allocation count means nothing; the guard that counts it runs in the
// plain build only.
const raceEnabled = true
