package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"texcache/internal/telemetry"
	"texcache/internal/workload"
)

// sweepTrace runs the canonical sweep on the exact or fast engine with
// the given clock and returns the Chrome trace_event export.
func sweepTrace(t *testing.T, clock telemetry.Clock, fast bool) []byte {
	t.Helper()
	cfg := testCfg()
	cfg.Frames = 4
	cfg.FastSweep = fast
	cfg.Trace = telemetry.NewTrace(clock)
	if _, err := RunComparison(workload.Village(), cfg, telemetrySpecs()); err != nil {
		t.Fatalf("fast=%v: %v", fast, err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceCanonicalDeterminism pins the canonical regime: under
// FakeClock the exact engine's export carries the logical render and
// replay record, no wall-only data, and is byte-identical across runs.
func TestTraceCanonicalDeterminism(t *testing.T) {
	base := sweepTrace(t, &telemetry.FakeClock{Step: 7}, false)
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
	if got := sweepTrace(t, &telemetry.FakeClock{Step: 7}, false); !bytes.Equal(got, base) {
		t.Errorf("canonical trace differs between two runs (%d vs %d bytes)", len(got), len(base))
	}
}

// TestTraceFastSweepCanonicalDeterminism extends the byte-identity
// contract to the analytic engine with its exact-fallback sub-engine:
// the logical record must not move between runs.
func TestTraceFastSweepCanonicalDeterminism(t *testing.T) {
	// pull-16k with 1-way L1 is outside the model's reach, forcing the
	// exact-fallback replay path next to the modeled specs.
	specs := telemetrySpecs()
	specs[3].L1Ways = 1
	run := func() []byte {
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
		return buf.Bytes()
	}
	base := run()
	for _, want := range []string{
		`"name":"exact-fallback"`, `"name":"eval"`, `"name":"tlb-patch"`, `"name":"model"`,
	} {
		if !bytes.Contains(base, []byte(want)) {
			t.Fatalf("fast canonical export missing %s:\n%s", want, base)
		}
	}
	if got := run(); !bytes.Equal(got, base) {
		t.Error("fast canonical trace differs between two runs")
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

// TestTraceWallExportShape pins the wall-regime export of the exact
// engine: valid trace_event JSON with the "render" thread track carrying
// the frame spans and one "replayed/<spec>" counter track per spec.
func TestTraceWallExportShape(t *testing.T) {
	data := sweepTrace(t, &stepTestClock{step: 1000}, false)
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
	tracks := map[string]bool{}
	counters := map[string]bool{}
	frames := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				tracks[ev.Args.Name] = true
			}
		case "C":
			counters[ev.Name] = true
		case "X":
			if ev.Name == "frame" {
				frames++
			}
		}
	}
	if !tracks["render"] {
		t.Errorf("wall export has no render track (tracks %v)", tracks)
	}
	if frames != 4 {
		t.Errorf("wall export has %d frame spans, want 4", frames)
	}
	for _, s := range telemetrySpecs() {
		if name := "replayed/" + s.Name; !counters[name] {
			t.Errorf("wall export missing counter track %q (counters %v)", name, counters)
		}
	}
	if len(counters) != len(telemetrySpecs()) {
		t.Errorf("wall export has %d counter tracks (%v), want %d",
			len(counters), counters, len(telemetrySpecs()))
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
// monitor serves: after a sweep every spec's replay counter equals the
// frame count.
func TestTraceCountersTrackEngineWork(t *testing.T) {
	cfg := testCfg()
	cfg.Frames = 4
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
