// Package simx is a miniature stand-in for the repository's real
// internal/simx, giving fixtures the Time type and its unit constants.
package simx

type Time int64

const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)
