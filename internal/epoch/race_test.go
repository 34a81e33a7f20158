//go:build race

package epoch

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own account: allocation budgets do not hold under it.
const raceEnabled = true
