//go:build !race

package explore

// raceDetector reports that the tests run under the race detector,
// whose instrumentation allocates too.
const raceDetector = false
