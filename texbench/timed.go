package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/telemetry"
	"texcache/internal/workload"
)

// minIterations is the fewest timed iterations a run makes, so every
// reported time is a median of at least three.
const minIterations = 3

// setupRepsPerSample is how many set-ups run after each calibration
// sample. A set-up takes well under a millisecond, much less than the
// host's speed episodes last, so its repeats are spread over the timed
// loop with the calibration samples: setup_s is then a median over the
// same stretch of host time as the slowdown it is divided by.
const setupRepsPerSample = 10

// Setup is what set-up hands the timed region: the workload, prepared.
type Setup struct {
	W *workload.Workload
	// Seconds holds each set-up's duration and BuildSeconds the
	// workload-construction part of it.
	Seconds      []float64
	BuildSeconds []float64

	d    Def
	seed uint64
}

// seconds converts a clock interval to seconds.
func seconds(from, to int64) float64 { return float64(to-from) / 1e9 }

// RunSetup builds, jitters and prepares the workload the timed loop
// runs on.
func RunSetup(d Def, seed uint64, clock *telemetry.WallClock) (*Setup, error) {
	s := &Setup{d: d, seed: seed}
	return s, s.Repeat(clock, 1)
}

// Repeat runs set-up n more times from a collected heap, recording each
// duration. Only the first set-up's workload is kept.
func (s *Setup) Repeat(clock *telemetry.WallClock, n int) error {
	for r := 0; r < n; r++ {
		runtime.GC()
		t0 := clock.Now()
		w := s.d.Instantiate(s.seed)
		t1 := clock.Now()
		if err := s.d.Prepare(w); err != nil {
			return err
		}
		t2 := clock.Now()
		if s.W == nil {
			s.W = w
		}
		s.Seconds = append(s.Seconds, seconds(t0, t2))
		s.BuildSeconds = append(s.BuildSeconds, seconds(t0, t1))
	}
	return nil
}

// Outcome is one timed call's output, as the check reads it.
type Outcome struct {
	Totals []cache.Counters
	// Modeled marks specs whose Totals the -fast model predicted.
	Modeled []bool
	Cmp     *core.Comparison
}

// RunOnce makes the workload's timed call, an exact or a fast sweep. It
// sets no engine knob.
func RunOnce(d Def, s *Setup, specs []core.CacheSpec) (*Outcome, error) {
	render := d.Render()
	render.FastSweep = d.Kind == KindFast
	cmp, err := core.RunComparison(s.W, render, specs)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Cmp:     cmp,
		Totals:  make([]cache.Counters, len(cmp.Results)),
		Modeled: make([]bool, len(cmp.Results)),
	}
	for i, r := range cmp.Results {
		out.Totals[i] = r.Totals
		// A modeled result carries whole-run totals but no frames.
		out.Modeled[i] = len(r.Frames) == 0 && r.ModelFrames > 0
	}
	return out, nil
}

// Check compares an outcome with the reference spec by spec. It returns
// the number of specs checked and a description of every failing one.
func Check(o *Outcome, ref *Reference) (checked int, failures []string) {
	if len(o.Totals) != len(ref.Totals) {
		return len(ref.Totals), []string{fmt.Sprintf("%d results, want %d", len(o.Totals), len(ref.Totals))}
	}
	for i := range o.Totals {
		var diffs []string
		if o.Modeled[i] {
			diffs = DiffModeled(o.Totals[i], ref.Totals[i])
		} else {
			diffs = DiffExact(o.Totals[i], ref.Totals[i])
		}
		if len(diffs) > 0 {
			failures = append(failures, fmt.Sprintf("%s: %v", ref.Specs[i], diffs))
		}
	}
	return len(o.Totals), failures
}

// Sample is one timed iteration's host cost.
type Sample struct {
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles float64 `json:"gc_cycles"`
	GCPauseS float64 `json:"gc_pause_s"`
}

// Timed is the untraced timed loop's result.
type Timed struct {
	Samples   []Sample
	Attempted int
	Failed    int
	Failures  []string
	// Last is the final iteration's outcome (nil if it errored).
	Last *Outcome
	// Speed is the host's speed as the calibration kernel saw it,
	// sampled between iterations.
	Speed Speed
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// RunTimed repeats the timed call, checking every output against ref,
// until at least minIterations ran and the next iteration, taking as
// long as the last, would end past budget seconds; a run so measures for
// about budget seconds and no longer. Each iteration starts from a
// collected heap and builds fresh caches.
// Between iterations it runs the calibration kernel for calibShare of
// the time spent so far, so the host's speed is sampled across the run,
// and repeats set-up after each calibration sample.
func RunTimed(d Def, s *Setup, ref *Reference, clock *telemetry.WallClock, budget float64) (*Timed, error) {
	specs := d.Specs()
	t := &Timed{}
	start := clock.Now()
	var work, last float64
	for len(t.Samples) < minIterations || seconds(start, clock.Now())+last <= budget {
		for len(t.Speed.One) == 0 || t.Speed.Spent < calibShare*work {
			t.Speed.Sample(clock)
			if err := s.Repeat(clock, setupRepsPerSample); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuSeconds()
		w0 := clock.Now()
		o, err := RunOnce(d, s, specs)
		w1 := clock.Now()
		c1 := cpuSeconds()
		runtime.ReadMemStats(&m1)
		t.Samples = append(t.Samples, Sample{
			WallS:    seconds(w0, w1),
			CPUS:     c1 - c0,
			AllocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
			GCCycles: float64(m1.NumGC - m0.NumGC),
			GCPauseS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
		})
		last = seconds(w0, w1)
		work += last
		if err != nil {
			t.Attempted += len(specs)
			t.Failed += len(specs)
			t.Failures = append(t.Failures, fmt.Sprintf("iteration %d: %v", len(t.Samples), err))
			t.Last = nil
			continue
		}
		n, fails := Check(o, ref)
		t.Attempted += n
		t.Failed += len(fails)
		t.Failures = append(t.Failures, fails...)
		t.Last = o
	}
	return t, nil
}

// median returns the median of vs (the mean of the middle pair for an
// even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// column extracts one field of every sample.
func column(ss []Sample, f func(Sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}
