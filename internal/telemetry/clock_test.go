package telemetry

import "testing"

func TestWallClockMonotonic(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	b := c.Now()
	if a < 0 || b < a {
		t.Errorf("wall clock went backwards: %d then %d", a, b)
	}
}
