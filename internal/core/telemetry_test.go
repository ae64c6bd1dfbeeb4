package core

import (
	"bytes"
	"reflect"
	"testing"

	"texcache/internal/telemetry"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// telemetrySpecs is a small sweep covering pull, two L2 sizes and a
// second L2 layout, so both engines exercise layout sharing.
func telemetrySpecs() []CacheSpec {
	return []CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 * 1024},
		l2spec("l2-2m", 2*1024, 2, 16),
		l2spec("l2-4m", 2*1024, 4, 16),
		{Name: "pull-16k", L1Bytes: 16 * 1024},
	}
}

// TestMetricStreamDeterminism pins the metric stream of a comparison
// sweep: one record per frame and spec in frame-major, spec-minor order,
// each equal to the record built from that spec's FrameResult, and two
// runs byte-identical in JSONL.
func TestMetricStreamDeterminism(t *testing.T) {
	specs := telemetrySpecs()
	run := func() ([]byte, []telemetry.FrameMetrics, *Comparison) {
		var out bytes.Buffer
		var buf telemetry.Buffer
		cfg := testCfg()
		cfg.Frames = 4
		cfg.Metrics = telemetry.Tee(telemetry.NewJSONL(&out), &buf)
		cfg.CollectReuse = true
		cmp, err := RunComparison(workload.Village(), cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), buf.Records, cmp
	}

	baseBytes, baseRecs, baseCmp := run()
	if want := 4 * len(specs); len(baseRecs) != want {
		t.Fatalf("emitted %d records, want %d", len(baseRecs), want)
	}
	for n, rec := range baseRecs {
		f, i := n/len(specs), n%len(specs)
		if want := metricsFrame(baseCmp.Workload, specs[i].Name, f, &baseCmp.Results[i].Frames[f]); rec != want {
			t.Errorf("record %d = %+v, want frame %d of %s: %+v", n, rec, f, specs[i].Name, want)
		}
	}
	gotBytes, gotRecs, gotCmp := run()
	if !reflect.DeepEqual(gotRecs, baseRecs) {
		t.Error("records differ between two runs")
	}
	if !bytes.Equal(gotBytes, baseBytes) {
		t.Error("JSONL stream not byte-identical between two runs")
	}
	if !reflect.DeepEqual(gotCmp.Reuse, baseCmp.Reuse) {
		t.Error("reuse histogram differs between two runs")
	}
	if baseCmp.Reuse == nil || baseCmp.Reuse.Accesses == 0 {
		t.Error("reuse histogram empty despite CollectReuse")
	}
}

func TestRunEmitsMetrics(t *testing.T) {
	var buf telemetry.Buffer
	cfg := withL2(testCfg(), 2)
	cfg.Frames = 3
	cfg.Metrics = &buf
	cfg.CollectReuse = true
	res, err := Run(workload.City(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf.Records) != 3 {
		t.Fatalf("emitted %d records, want 3", len(buf.Records))
	}
	for f, m := range buf.Records {
		want := metricsFrame(res.Workload, "", f, &res.Frames[f])
		if m != want {
			t.Errorf("frame %d record = %+v, want %+v", f, m, want)
		}
		if m.Workload != "city" || m.Frame != f {
			t.Errorf("frame %d mislabelled: %+v", f, m)
		}
		if m.L1Accesses == 0 || m.Pixels == 0 {
			t.Errorf("frame %d has empty counters: %+v", f, m)
		}
	}
	if res.Reuse == nil || res.Reuse.Accesses == 0 {
		t.Fatal("reuse histogram missing")
	}
	// Every texel reference must have been observed by the probe.
	if res.Reuse.Accesses != res.Totals.L1.Accesses {
		t.Errorf("reuse accesses = %d, L1 accesses = %d",
			res.Reuse.Accesses, res.Totals.L1.Accesses)
	}
}

// TestRunWithoutTelemetry pins the defaults: no emitter, no trace, no
// probe — nothing telemetry-shaped reaches the results.
func TestRunWithoutTelemetry(t *testing.T) {
	cfg := testCfg()
	cfg.Frames = 2
	res, err := Run(workload.Village(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reuse != nil {
		t.Error("reuse histogram present without CollectReuse")
	}
}

// phaseCounts maps each phase of the trace's report to its span count.
func phaseCounts(tr *telemetry.Trace) map[string]int {
	count := map[string]int{}
	for _, p := range tr.Report().Phases {
		count[p.Name] = p.Count
	}
	return count
}

// TestSweepSpans checks the exact engine records the advertised phases
// on a wall-clock trace: exactly one render "frame" span per frame on the
// "render" track, however many specs it simulates.
func TestSweepSpans(t *testing.T) {
	const frames = 3
	cfg := testCfg()
	cfg.Frames = frames
	cfg.Trace = telemetry.NewTrace(telemetry.NewWallClock())
	specs := telemetrySpecs()[:2]
	if _, err := RunComparison(workload.Village(), cfg, specs); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Trace.Report()
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "frame" ||
		rep.Phases[0].Count != frames || rep.Phases[0].MaxTrack != "render" {
		t.Fatalf("phases = %+v, want %d render frames", rep.Phases, frames)
	}
}

// TestRunRecordsFrameSpans checks the single-configuration simulator
// records one render "frame" span per frame into Config.Trace.
func TestRunRecordsFrameSpans(t *testing.T) {
	cfg := testCfg()
	cfg.Frames = 3
	cfg.Trace = telemetry.NewTrace(&telemetry.FakeClock{Step: 1})
	if _, err := Run(workload.Village(), cfg); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Trace.Report()
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "frame" ||
		rep.Phases[0].Count != cfg.Frames || rep.Phases[0].MaxTrack != "render" {
		t.Fatalf("phases = %+v, want %d render frames", rep.Phases, cfg.Frames)
	}
}

// TestEmitPathAllocFree asserts the per-texel hot path allocates nothing,
// with the reuse probe both disabled and enabled — the ISSUE's "zero
// allocs/op added on the per-access emit path".
func TestEmitPathAllocFree(t *testing.T) {
	w := workload.Village()
	cfg := withL2(testCfg(), 2)
	build := func(collectReuse bool) *addrSink {
		c := cfg
		c.CollectReuse = collectReuse
		sim, err := NewSimulator(w, c)
		if err != nil {
			t.Fatal(err)
		}
		return sim.sink
	}
	for name, sink := range map[string]*addrSink{
		"disabled": build(false),
		"enabled":  build(true),
	} {
		u, v := 0, 0
		if n := testing.AllocsPerRun(1000, func() {
			sink.Texel(texture.ID(0), u, v, 0)
			u = (u + 7) & 63
			v = (v + 3) & 63
		}); n != 0 {
			t.Errorf("probe %s: %.1f allocs per texel, want 0", name, n)
		}
	}
}

func BenchmarkTexelEmit(b *testing.B) {
	w := workload.Village()
	for _, collectReuse := range []bool{false, true} {
		name := "reuse-off"
		if collectReuse {
			name = "reuse-on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := withL2(testCfg(), 2)
			cfg.CollectReuse = collectReuse
			sim, err := NewSimulator(w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.sink.Texel(texture.ID(0), i&63, (i>>6)&63, 0)
			}
		})
	}
}
