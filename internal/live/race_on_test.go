//go:build race

package live

// raceEnabled: under the race detector the asynchronous runs interleave
// differently and keep more frames in flight, so the whole-run footprint
// budget does not hold there.
const raceEnabled = true
