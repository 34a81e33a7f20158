//go:build !race

package epoch

const raceEnabled = false
