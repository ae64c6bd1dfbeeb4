package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"texcache/internal/core"
	"texcache/internal/experiments"
	"texcache/internal/telemetry"
)

// tiny shrinks a workload to a scale its whole benchmark path (reference,
// set-up, timed loop, check, ladder) covers in seconds. City runs larger:
// the fast model's L2 full-hit error grows as the stream shrinks (7
// points at 64x48 over 3 frames, 5 at 128x96 over 6, 0.9 at 160x120 over
// 10), and the check's 2-point bound is the one the model meets at
// benchmark scale.
func tiny(t *testing.T, name string) Def {
	t.Helper()
	d, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	d.Width, d.Height, d.Frames = 64, 48, 3
	if d.Kind == KindFast {
		d.Width, d.Height, d.Frames = 160, 120, 10
	}
	return d
}

// texelTolerance bounds how far another seed's texel count may stray
// from the committed seed's: the jitter moves the camera by a fraction
// of a street width, so the stream changes but its size barely does.
const texelTolerance = 0.10

func TestSeededStreams(t *testing.T) {
	for _, name := range []string{"village-sweep", "city-fast"} {
		d := tiny(t, name)
		d.Width, d.Height, d.Frames = 96, 72, 6
		// One spec suffices: the seed changes the stream, not the caches.
		d.Specs = func() []core.CacheSpec { return experiments.SweepSpecs()[5:6] }
		key := "test"
		a, err := ComputeReference(d, CommittedSeed, key)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ComputeReference(d, CommittedSeed, key)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest || a.Refs != b.Refs || !reflect.DeepEqual(a.Totals, b.Totals) {
			t.Errorf("%s: seed %d gave two streams: %s/%d and %s/%d", name, CommittedSeed, a.Digest, a.Refs, b.Digest, b.Refs)
		}
		for seed := uint64(2); seed <= 4; seed++ {
			c, err := ComputeReference(d, seed, key)
			if err != nil {
				t.Fatal(err)
			}
			if c.Digest == a.Digest {
				t.Errorf("%s: seed %d gave the committed seed's stream %s", name, seed, c.Digest)
			}
			if r := float64(c.Refs)/float64(a.Refs) - 1; abs(r) > texelTolerance {
				t.Errorf("%s: seed %d has %d texels, %.1f%% off the committed seed's %d",
					name, seed, c.Refs, 100*r, a.Refs)
			}
		}
	}
}

func TestJitterBounded(t *testing.T) {
	for _, d := range Defs() {
		w := d.Build()
		amp := jitterFrac * pathExtent(w.Path)
		j := JitterPath(w.Path, 7, d.Name)
		if len(j.Points) != len(w.Path.Points) {
			t.Fatalf("%s: %d waypoints, want %d", d.Name, len(j.Points), len(w.Path.Points))
		}
		moved := false
		for i, p := range w.Path.Points {
			q := j.Points[i]
			for _, delta := range []float64{
				q.Eye.X - p.Eye.X, q.Eye.Y - p.Eye.Y, q.Eye.Z - p.Eye.Z,
				q.Target.X - p.Target.X, q.Target.Y - p.Target.Y, q.Target.Z - p.Target.Z,
			} {
				if abs(delta) > amp {
					t.Errorf("%s: waypoint %d moved %g, bound %g", d.Name, i, delta, amp)
				}
				moved = moved || delta != 0
			}
		}
		if !moved {
			t.Errorf("%s: jitter moved nothing", d.Name)
		}
	}
}

// TestCheckCatchesCorruption shows the output check fails when one
// counter of one spec is off by one, for exact and modeled results.
func TestCheckCatchesCorruption(t *testing.T) {
	d := tiny(t, "village-sweep")
	ref, err := ComputeReference(d, CommittedSeed, "test")
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunSetup(d, CommittedSeed, telemetry.NewWallClock())
	if err != nil {
		t.Fatal(err)
	}
	o, err := RunOnce(d, s, d.Specs())
	if err != nil {
		t.Fatal(err)
	}
	if n, fails := Check(o, ref); n != len(ref.Specs) || len(fails) != 0 {
		t.Fatalf("clean run: %d checked, failures %v", n, fails)
	}
	for _, corrupt := range []struct {
		field string
		f     func(*Outcome)
	}{
		{"L2ReadBytes", func(o *Outcome) { o.Totals[5].L2ReadBytes++ }},
		{"TLB.Hits", func(o *Outcome) { o.Totals[9].TLB.Hits++ }},
		{"L1.Misses", func(o *Outcome) { o.Totals[0].L1.Misses-- }},
		{"L2.Evictions", func(o *Outcome) { o.Totals[6].L2.Evictions++ }},
	} {
		bad := *o
		bad.Totals = append(bad.Totals[:0:0], o.Totals...)
		corrupt.f(&bad)
		_, fails := Check(&bad, ref)
		if len(fails) != 1 || !strings.Contains(fails[0], corrupt.field) {
			t.Errorf("corrupting %s: failures %v", corrupt.field, fails)
		}
	}

	want := ref.Totals[5]
	got := want
	got.TLB.Lookups++
	if diffs := DiffModeled(got, want); len(diffs) != 1 {
		t.Errorf("modeled TLB off by one: %v", diffs)
	}
	got = want
	got.L1.Misses += int64(float64(want.L1.Accesses) * (rateTolerance + 0.01))
	if diffs := DiffModeled(got, want); len(diffs) == 0 {
		t.Errorf("modeled L1 hit rate %.4f vs %.4f passed", got.L1.HitRate(), want.L1.HitRate())
	}
}

// TestWorkloadsEndToEnd runs every workload at tiny scale through the
// whole path, untraced and traced: generator, reference, timed loop,
// output check, ladder and its closure against the run's Totals.
func TestWorkloadsEndToEnd(t *testing.T) {
	var endToEnd, perLayer []string
	for _, m := range metricTable {
		if m.EndToEnd {
			endToEnd = append(endToEnd, m.Name)
		} else {
			perLayer = append(perLayer, m.Name)
		}
	}
	dir := t.TempDir()
	for _, name := range []string{"village-sweep", "city-fast"} {
		d := tiny(t, name)
		for _, traced := range []bool{false, true} {
			o := options{Seed: 3, Seconds: 0.01, Traced: traced, RefInProcess: true,
				CacheDir: filepath.Join(dir, "cache"), OutDir: filepath.Join(dir, "out")}
			var out bytes.Buffer
			res, err := Run(d, o, &out, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", name, traced, res.Failed, res.Attempted, res.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m)
				}
			}
			if traced {
				if c := res.Metrics["core.closure"].Value; c <= 0 {
					t.Errorf("%s: core.closure %g", name, c)
				}
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", name, err)
				}
			} else if res.Metrics["wall_s"].Value <= 0 || res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: non-positive time in %v", name, res.Metrics)
			}
			if len(res.Speed.One) == 0 || len(res.Speed.All) != len(res.Speed.One) ||
				res.Slowdown <= 0 || res.SetupSlowdown <= 0 || res.Seconds != o.Seconds ||
				len(res.SetupS) != 1+setupRepsPerSample*len(res.Speed.One) {
				t.Errorf("%s traced=%v: speed %+v slowdown %g/%g seconds %g",
					name, traced, res.Speed, res.Slowdown, res.SetupSlowdown, res.Seconds)
			}
			if !strings.Contains(out.String(), "failed_frac") || !strings.Contains(out.String(), res.Digest) {
				t.Errorf("%s: report lacks failed_frac or digest:\n%s", name, out.String())
			}
		}
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	fp := MachineFingerprint(CommittedSeed)
	a := &Result{Workload: "city-fast", Fingerprint: fp, Seconds: RunSeconds, Correct: true, Attempted: 13,
		Metrics: map[string]Value{"wall_s": {1.0, "s"}, "mrefs_per_s": {10, "Mref/s"}}}
	b := &Result{Workload: "city-fast", Fingerprint: fp, Seconds: RunSeconds, Correct: true, Attempted: 13,
		Metrics: map[string]Value{"wall_s": {1.05, "s"}, "mrefs_per_s": {9.6, "Mref/s"}}}
	var out bytes.Buffer
	bad, err := Compare(&out, a, b)
	if err != nil || bad || strings.Count(out.String(), " ok") != 2 {
		t.Errorf("same machine: bad=%v err=%v\n%s", bad, err, out.String())
	}

	b.Metrics["wall_s"] = Value{1.5, "s"}
	out.Reset()
	if bad, _ := Compare(&out, a, b); !bad || !strings.Contains(out.String(), "worse") {
		t.Errorf("regression not flagged:\n%s", out.String())
	}

	b.Metrics["wall_s"] = Value{1.05, "s"}
	for _, change := range []func(*Result){
		func(r *Result) { r.Fingerprint.CPU = "other" },
		func(r *Result) { r.Fingerprint.NProc++ },
		func(r *Result) { r.Fingerprint.GOMAXPROCS++ },
		func(r *Result) { r.Fingerprint.GoVersion = "go0" },
		func(r *Result) { r.Fingerprint.Seed++ },
		func(r *Result) { r.Fingerprint.ConfigHash = "x" },
		func(r *Result) { r.Seconds = 20 },
	} {
		c := *b
		change(&c)
		out.Reset()
		bad, err := Compare(&out, a, &c)
		if err != nil || !bad {
			t.Errorf("fingerprint change not refused: bad=%v err=%v", bad, err)
		}
		if s := out.String(); !strings.Contains(s, "not comparable") || strings.Contains(s, " ok") {
			t.Errorf("fingerprint change printed:\n%s", s)
		}
	}

	// A faster run whose output check failed must not pass.
	for _, change := range []func(*Result){
		func(r *Result) { r.Correct = false; r.Failed = 1 },
		func(r *Result) { r.Failed = 1 },
	} {
		c := *b
		change(&c)
		c.Metrics = map[string]Value{"wall_s": {0.5, "s"}, "mrefs_per_s": {20, "Mref/s"}}
		out.Reset()
		bad, err := Compare(&out, a, &c)
		if err != nil || !bad {
			t.Errorf("failed check not refused: bad=%v err=%v", bad, err)
		}
		if s := out.String(); !strings.Contains(s, "failed check") || strings.Contains(s, " ok") {
			t.Errorf("failed check printed:\n%s", s)
		}
	}
}

// TestSlowdownInterpolates checks that the host slowdown follows the
// one-worker samples for single-threaded work, the all-worker samples
// for work that keeps every processor busy, and lies between them
// otherwise.
func TestSlowdownInterpolates(t *testing.T) {
	s := &Speed{One: []float64{0.9, 0.1, 0.2}, All: []float64{0.3, 0.4, 0.9}}
	one, all := 0.2/calibRefSeconds, 0.4/calibRefSeconds
	n := float64(runtime.GOMAXPROCS(0))
	if got := s.Slowdown(0.5); got != one {
		t.Errorf("util 0.5: %g, want %g", got, one)
	}
	if got := s.Slowdown(1); got != one {
		t.Errorf("util 1: %g, want %g", got, one)
	}
	if n == 1 {
		return
	}
	if got := s.Slowdown(n + 1); got != all {
		t.Errorf("util %g: %g, want %g", n+1, got, all)
	}
	mid := s.Slowdown((1 + n) / 2)
	if want := (one + all) / 2; mid < want-1e-9 || mid > want+1e-9 {
		t.Errorf("util %g: %g, want %g", (1+n)/2, mid, want)
	}
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json at the repository
// root in step with the workloads and metrics the program reports.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
		RunSeconds float64  `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != RunSeconds {
		t.Errorf("run_seconds %g, RunSeconds %d", bj.RunSeconds, RunSeconds)
	}
	defs := Defs()
	if len(bj.Workloads) != len(defs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(bj.Workloads), len(defs))
	}
	for i, d := range defs {
		if bj.Workloads[i].Name != d.Name || bj.Workloads[i].Why != d.Why {
			t.Errorf("workload %d: %+v, defined %s: %s", i, bj.Workloads[i], d.Name, d.Why)
		}
	}
	var e2e, layers []metric
	for _, m := range metricTable {
		bound := m.Bound
		mm := metric{m.Name, m.Unit, m.Better, &bound}
		if m.EndToEnd {
			e2e = append(e2e, mm)
		} else {
			mm.Bound = nil
			layers = append(layers, mm)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, e2e) {
		t.Errorf("end_to_end differs from metricTable")
	}
	if !reflect.DeepEqual(bj.PerLayer, layers) {
		t.Errorf("per_layer differs from metricTable")
	}
}
