//go:build race

package harness

// raceDetector reports that the tests run under the race detector,
// whose instrumentation allocates too.
const raceDetector = true
