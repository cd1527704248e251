//go:build race

package exec

// raceDetector reports a build under the race detector, whose sync.Pool
// drops a random share of what it is given.
const raceDetector = true
