//go:build race

package gateway

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so allocation budgets do not hold under it.
const raceEnabled = true
