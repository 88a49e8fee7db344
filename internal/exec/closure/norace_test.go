//go:build !race

package closure_test

const raceEnabled = false
