//go:build !race

package passes_test

// raceDetector reports a -race build, whose sync.Pool drops a share of
// what is put in it at random.
const raceDetector = false
