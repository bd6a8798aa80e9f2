//go:build race

package live

// raceEnabled: under the race detector sync.Pool drops a share of what it is
// given, so allocation budgets that lean on the recycler do not hold.
const raceEnabled = true
