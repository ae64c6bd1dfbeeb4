package main

import (
	"math"
	"runtime"
	"sync"

	"texcache/internal/telemetry"
)

// The calibration kernel measures how fast this machine runs right now,
// so that reported times can be corrected for the host's speed changing
// under the benchmark (shared hosts slow down and speed up by a third or
// more over minutes). It is the benchmark's own code and calls nothing in
// the program, so a change to the program cannot move it. It is shaped
// like the simulator's inner loop: it generates blocks of texel-like
// addresses (a raster walk with a little floating point) and runs them
// through a set-associative tag search with LRU update and, on a miss, a
// lookup in a table larger than a core's own caches.
const (
	calibSets     = 256     // 4-way sets: a 1024-line tag array, like an L1
	calibTableLen = 1 << 19 // 2 MB of uint32, like an L2 page table plus residency
	calibBlock    = 4096    // addresses per block
	calibBlocks   = 512     // blocks per calibration
)

// calibRefSeconds is the calibration's wall time, on one worker or on
// all of them, that counts as unit speed: about its time on the 2-vCPU
// Intel Xeon VM the committed baseline was measured on when that host
// runs slow, so that corrected times there are close to measured ones.
const calibRefSeconds = 0.09

// calibShare is the share of a run's timed work spent calibrating.
const calibShare = 0.1

// hostSensitivity is how closely a workload's time follows the kernel's
// when the host's speed changes; presumably it is below 1 because the
// kernel computes out of a core's own caches while the simulator also
// waits on memory, which those changes move less. Regressing log measured time on log slowdown over 75 runs on the
// baseline host, across a 2.3× range of host speed, gave 0.75 for
// village-sweep and 0.95 for city-fast; 0.85 splits them, leaving each
// within about 13% across that whole range.
const hostSensitivity = 0.85

// correct converts a measured time to unit-speed seconds.
func correct(measured, slowdown float64) float64 {
	return measured / math.Pow(slowdown, hostSensitivity)
}

var (
	calibOnce  sync.Once
	calibTable []uint32
)

// calibGen is the address-generating stage's state.
type calibGen struct {
	x    uint64
	u, v float64
	i    int
}

// fill writes one block of addresses.
func (g *calibGen) fill(b []uint32) {
	for k := range b {
		g.x ^= g.x << 13
		g.x ^= g.x >> 7
		g.x ^= g.x << 17
		// Mostly local walks, with an occasional jump, as a raster
		// scan over textures gives.
		if g.x&63 == 0 {
			g.u, g.v = float64(g.x>>40&1023), float64(g.x>>20&1023)
		}
		g.u += 0.75 + 0.25*math.Sin(float64(g.i&255))
		g.v += 0.125
		g.i++
		b[k] = uint32(int(g.u)&1023) | uint32(int(g.v)&1023)<<10
	}
}

// calibSim is the cache stage's state.
type calibSim struct {
	tags [calibSets * 4]uint32
	age  [calibSets * 4]uint8
	sum  uint64
}

// run simulates one block.
func (c *calibSim) run(b []uint32) {
	for _, addr := range b {
		line := addr >> 2
		set := int(line) & (calibSets - 1) * 4
		hit := -1
		for w := 0; w < 4; w++ {
			if c.tags[set+w] == line {
				hit = w
				break
			}
		}
		if hit < 0 {
			hit = 0
			for w := 1; w < 4; w++ {
				if c.age[set+w] > c.age[set+hit] {
					hit = w
				}
			}
			c.tags[set+hit] = line
			c.sum += uint64(calibTable[(line*2654435761)&(calibTableLen-1)])
		}
		for w := 0; w < 4; w++ {
			if c.age[set+w] < 255 {
				c.age[set+w]++
			}
		}
		c.age[set+hit] = 0
	}
}

// Calibrate runs the kernel on n workers at once, each generating and
// simulating its own blocks, and returns its wall time in seconds and a
// checksum that keeps the work from being optimised away. On one worker
// it measures a processor's speed; on all of them, whether the
// processors also run at that speed side by side.
func Calibrate(clock *telemetry.WallClock, n int) (secs float64, sum uint64) {
	calibOnce.Do(func() {
		calibTable = make([]uint32, calibTableLen)
		x := uint32(2463534242)
		for i := range calibTable {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			calibTable[i] = x
		}
	})
	sums := make([]uint64, n)
	var wg sync.WaitGroup
	t0 := clock.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, c := &calibGen{x: uint64(w) + 1}, &calibSim{}
			b := make([]uint32, calibBlock)
			for i := 0; i < calibBlocks; i++ {
				g.fill(b)
				c.run(b)
			}
			sums[w] = c.sum
		}(w)
	}
	wg.Wait()
	t1 := clock.Now()
	for _, v := range sums {
		sum ^= v
	}
	return seconds(t0, t1), sum
}

// Speed is a run's record of the calibration kernel: each sample runs it
// once on one worker and once on every worker (GOMAXPROCS).
type Speed struct {
	One, All []float64
	// Spent is the wall time the samples took.
	Spent float64
	check uint64
}

// Sample runs the kernel on one worker and on all of them.
func (s *Speed) Sample(clock *telemetry.WallClock) {
	one, sum := Calibrate(clock, 1)
	s.check ^= sum
	all := one
	if n := runtime.GOMAXPROCS(0); n > 1 {
		all, sum = Calibrate(clock, n)
		s.check ^= sum
	}
	s.One = append(s.One, one)
	s.All = append(s.All, all)
	s.Spent += one + all
}

// Slowdown is how much slower than unit speed the host ran, for work
// that keeps util of the GOMAXPROCS processors busy on average: the
// one-worker and all-worker medians, each over calibRefSeconds,
// interpolated by util. A shared host's slowdowns differ by parallelism
// (for minutes at a time, two busy vCPUs may run no faster than one), so
// a single-threaded phase is judged by the one-worker kernel and a
// parallel one by the all-worker kernel.
func (s *Speed) Slowdown(util float64) float64 {
	one := median(s.One) / calibRefSeconds
	all := median(s.All) / calibRefSeconds
	n := float64(runtime.GOMAXPROCS(0))
	if n <= 1 {
		return one
	}
	f := (util - 1) / (n - 1)
	f = math.Max(0, math.Min(1, f))
	return one + f*(all-one)
}
