package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"texcache/internal/telemetry"
	"texcache/internal/workload"
)

// sweepTrace runs the canonical sweep at the given engine settings with
// the given clock and returns the Chrome trace_event export.
func sweepTrace(t *testing.T, clock telemetry.Clock, par int, fast bool) []byte {
	t.Helper()
	cfg := testCfg()
	cfg.Frames = 4
	cfg.Parallelism = par
	cfg.FastSweep = fast
	cfg.Trace = telemetry.NewTrace(clock)
	if _, err := RunComparison(workload.Village(), cfg, telemetrySpecs()); err != nil {
		t.Fatalf("par=%d fast=%v: %v", par, fast, err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceCanonicalDeterminism pins the tentpole acceptance criterion:
// under FakeClock the exported trace bytes are identical at every
// Parallelism setting — including the serial reference engine, which
// shares no code with the worker pool.
func TestTraceCanonicalDeterminism(t *testing.T) {
	base := sweepTrace(t, &telemetry.FakeClock{Step: 7}, 1, false)
	for _, want := range []string{
		`"name":"frame"`, `"name":"render"`, `"replayed/pull-2k"`, `"replayed/l2-4m"`,
	} {
		if !bytes.Contains(base, []byte(want)) {
			t.Fatalf("canonical export missing %s:\n%s", want, base)
		}
	}
	// Scheduling-dependent events must not leak into the canonical
	// regime: physical track names, protocol instants, gauges.
	for _, reject := range []string{
		"replay group", "render worker", "shard-publish", "chunk-bytes-inflight",
		"replay-frame",
	} {
		if bytes.Contains(base, []byte(reject)) {
			t.Fatalf("canonical export leaks wall-only data %q:\n%s", reject, base)
		}
	}
	for _, par := range []int{4, 2, 0} {
		got := sweepTrace(t, &telemetry.FakeClock{Step: 7}, par, false)
		if !bytes.Equal(got, base) {
			t.Errorf("canonical trace at par=%d differs from serial (%d vs %d bytes)",
				par, len(got), len(base))
		}
	}
}

// TestTraceFastSweepCanonicalDeterminism extends the byte-identity
// contract to the analytic engine: the exact-fallback sub-engine may run
// serial or parallel, the logical record must not move.
func TestTraceFastSweepCanonicalDeterminism(t *testing.T) {
	// pull-16k with 1-way L1 is outside the model's reach, forcing the
	// exact-fallback replay path next to the modeled specs.
	specs := telemetrySpecs()
	specs[3].L1Ways = 1
	run := func(par int) []byte {
		cfg := testCfg()
		cfg.Frames = 3
		cfg.Parallelism = par
		cfg.FastSweep = true
		cfg.Trace = telemetry.NewTrace(&telemetry.FakeClock{Step: 7})
		if _, err := RunComparison(workload.Village(), cfg, specs); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		var buf bytes.Buffer
		if err := cfg.Trace.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := run(1)
	for _, want := range []string{
		`"name":"exact-fallback"`, `"name":"eval"`, `"name":"tlb-patch"`, `"name":"model"`,
	} {
		if !bytes.Contains(base, []byte(want)) {
			t.Fatalf("fast canonical export missing %s:\n%s", want, base)
		}
	}
	for _, par := range []int{4, 0} {
		if got := run(par); !bytes.Equal(got, base) {
			t.Errorf("fast canonical trace at par=%d differs from serial", par)
		}
	}
}

// TestTraceFastProbePhase covers the all-modeled branch: the bare
// instrumented render records logical "probe" frame spans, and the
// report carries the fast sweep's phases — one probe frame per frame,
// one model "eval" per spec, one "tlb-patch".
func TestTraceFastProbePhase(t *testing.T) {
	specs := []CacheSpec{l2spec("l2-2m", 2*1024, 2, 16), l2spec("l2-4m", 2*1024, 4, 16)}
	cfg := testCfg()
	cfg.Frames = 3
	cfg.FastSweep = true
	cfg.Trace = telemetry.NewTrace(&telemetry.FakeClock{Step: 7})
	if _, err := RunComparison(workload.Village(), cfg, specs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"probe"`)) {
		t.Fatalf("all-modeled fast sweep missing probe track:\n%s", buf.Bytes())
	}
	count := phaseCounts(cfg.Trace)
	want := map[string]int{"frame": cfg.Frames, "eval": len(specs), "tlb-patch": 1}
	for name, n := range want {
		if count[name] != n {
			t.Errorf("fast sweep phase %q recorded %d times, want %d (all: %v)",
				name, count[name], n, count)
		}
	}
}

// TestTraceWallExportShape pins the other half of the acceptance
// criterion against a wall-regime clock: the parallel engine's export
// carries at least 3 distinct worker tracks and at least 2 counter
// tracks, in valid trace_event shape.
func TestTraceWallExportShape(t *testing.T) {
	data := sweepTrace(t, &stepTestClock{step: 1000}, 4, false)
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export not valid JSON: %v", err)
	}
	workerTracks := map[string]bool{}
	counters := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				if n := ev.Args.Name; strings.HasPrefix(n, "replay group ") {
					workerTracks[n] = true
				}
			}
		case "C":
			counters[ev.Name] = true
		}
	}
	if len(workerTracks) < 3 {
		t.Errorf("wall export has %d worker tracks (%v), want >= 3", len(workerTracks), workerTracks)
	}
	if len(counters) < 2 {
		t.Errorf("wall export has %d counter tracks (%v), want >= 2", len(counters), counters)
	}
	for _, want := range []string{"shard-publish", "replay group 0", "replay group 3",
		"coordinator", "assemble"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("wall export missing %q", want)
		}
	}
}

// stepTestClock advances by a fixed step per reading without
// implementing DeterministicClock, so the trace records wall-regime.
type stepTestClock struct {
	ns   int64
	step int64
}

func (c *stepTestClock) Now() int64 {
	c.ns += c.step
	return c.ns
}

// TestTraceCountersTrackEngineWork sanity-checks the live counters the
// monitor serves: after a parallel sweep every spec's replay counter
// equals the frame count, the rendered counter equals the frame count,
// and the chunk pool drained back to zero bytes in flight.
func TestTraceCountersTrackEngineWork(t *testing.T) {
	cfg := testCfg()
	cfg.Frames = 4
	cfg.Parallelism = 4
	cfg.Trace = telemetry.NewTrace(telemetry.NewWallClock())
	specs := telemetrySpecs()
	if _, err := RunComparison(workload.Village(), cfg, specs); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if got := cfg.Trace.Counter("replayed/" + s.Name).Value(); got != 4 {
			t.Errorf("replayed/%s = %d, want 4", s.Name, got)
		}
	}
	if got := cfg.Trace.Counter("frames-rendered").Value(); got != 4 {
		t.Errorf("frames-rendered = %d, want 4", got)
	}
	if got := cfg.Trace.Counter("chunk-bytes-inflight").Value(); got != 0 {
		t.Errorf("chunk-bytes-inflight = %d after run, want 0", got)
	}
	if got := cfg.Trace.Counter("trace-bytes").Value(); got <= 0 {
		t.Errorf("trace-bytes = %d, want > 0", got)
	}

	mon := telemetry.NewMonitor(cfg.Trace, cfg.Frames)
	snap := mon.Snapshot()
	if len(snap.Specs) != len(specs) {
		t.Fatalf("monitor sees %d specs, want %d", len(snap.Specs), len(specs))
	}
	for _, sp := range snap.Specs {
		if sp.Done != 1 {
			t.Errorf("spec %s done = %v, want 1", sp.Spec, sp.Done)
		}
	}
}
