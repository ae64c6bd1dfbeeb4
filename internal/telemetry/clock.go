// Clocks: the injectable monotonic time source behind textrace spans
// and texbench timings. Tests inject a FakeClock so recorded durations
// are a pure function of the test, and production runs use WallClock,
// whose readings are confined to telemetry sidecar files and never feed
// simulation output.
package telemetry

import "time"

// Clock yields monotonic nanoseconds. Implementations need not be safe
// for concurrent use; Trace serialises access internally.
type Clock interface {
	Now() int64
}

// WallClock reads the process monotonic clock, reported relative to its
// construction. This is the one sanctioned wall-clock source in the
// module (the texlint determinism allowlist covers only this package).
type WallClock struct {
	start time.Time
}

// NewWallClock starts a wall clock at zero.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now returns nanoseconds since construction.
func (c *WallClock) Now() int64 { return time.Since(c.start).Nanoseconds() }

// FakeClock is a deterministic Clock for tests: Now returns the current
// reading and then advances it by Step.
type FakeClock struct {
	NS   int64
	Step int64
}

// Now returns the current reading and advances by Step.
func (c *FakeClock) Now() int64 {
	v := c.NS
	c.NS += c.Step
	return v
}
