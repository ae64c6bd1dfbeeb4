// Command texbench is the repository's benchmark: it runs one named
// workload of the texture-cache simulator for a fixed time on inputs
// generated from a seed, checks every output against an exact
// reference, and prints every metric by name with its unit. The last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": 39, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones, from the same
// untraced timed loop plus a separate traced ladder run. A fuller record
// of the run (machine fingerprint, seed, stream digest, every sample)
// is written under -out. Usage:
//
//	texbench -workload village-sweep -seed 1 -seconds 40 -trace 0
//	texbench compare old.json new.json
//
// README.md in this directory defines every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"

	"texcache/internal/telemetry"
)

// RunSeconds is the timed loop's default budget, BENCHMARK.json's
// run_seconds.
const RunSeconds = 40

// Metric describes one reported metric.
type Metric struct {
	Name, Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression; 0 for
	// per-layer metrics, which carry no bound.
	Bound    float64
	EndToEnd bool
}

// metricTable lists every metric in report order; BENCHMARK.json at the
// repository root mirrors it (TestBenchmarkJSONMatchesTable).
var metricTable = []Metric{
	{"wall_s", "s", "lower", 0.25, true},
	{"mrefs_per_s", "Mref/s", "higher", 0.25, true},
	{"peak_rss_mb", "MB", "lower", 0.20, true},
	{"setup_s", "s", "lower", 0.25, true},

	{"cache.l1.accesses", "count", "lower", 0, false},
	{"cache.l1.hit_ratio", "ratio", "higher", 0, false},
	{"cache.l1.ns_per_access", "ns", "lower", 0, false},
	{"cache.hier_accesses", "count", "lower", 0, false},
	{"cache.busy_s", "s", "lower", 0, false},
	{"cache.l2.accesses", "count", "lower", 0, false},
	{"cache.l2.full_hit_ratio", "ratio", "higher", 0, false},
	{"cache.l2.evictions", "count", "lower", 0, false},
	{"cache.l2.ns_per_access", "ns", "lower", 0, false},
	{"cache.tlb.lookups", "count", "lower", 0, false},
	{"cache.tlb.hit_ratio", "ratio", "higher", 0, false},
	{"cache.tlb.ns_per_lookup", "ns", "lower", 0, false},
	{"trace.bytes_per_ref", "B", "lower", 0, false},
	{"trace.encode_ns_per_ref", "ns", "lower", 0, false},
	{"trace.decode_ns_per_ref", "ns", "lower", 0, false},
	{"trace.busy_s", "s", "lower", 0, false},
	{"texture.addr_calls", "count", "lower", 0, false},
	{"texture.ns_per_addr", "ns", "lower", 0, false},
	{"texture.busy_s", "s", "lower", 0, false},
	{"raster.frames", "count", "lower", 0, false},
	{"raster.texels", "count", "lower", 0, false},
	{"raster.busy_s", "s", "lower", 0, false},
	{"raster.ns_per_texel", "ns", "lower", 0, false},
	{"telemetry.profile_ns_per_ref", "ns", "lower", 0, false},
	{"telemetry.busy_s", "s", "lower", 0, false},
	{"model.predict_s", "s", "lower", 0, false},
	{"model_err_max_pp", "pp", "lower", 0, false},
	{"workload.build_s", "s", "lower", 0, false},
	{"core.cpu_s", "s", "lower", 0, false},
	{"core.cpu_util", "ratio", "higher", 0, false},
	{"core.residual_s", "s", "lower", 0, false},
	{"core.closure", "ratio", "higher", 0, false},
	{"runtime.alloc_mb", "MB", "lower", 0, false},
	{"runtime.gc_cycles", "count", "lower", 0, false},
	{"runtime.gc_pause_s", "s", "lower", 0, false},
	{"ladder.overhead_ratio", "ratio", "lower", 0, false},
	{"host.wall_raw_s", "s", "lower", 0, false},
	{"host.slowdown", "ratio", "lower", 0, false},
}

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the full record of one run, written under -out.
type Result struct {
	Workload    string           `json:"workload"`
	Seed        uint64           `json:"seed"`
	Traced      bool             `json:"traced"`
	RunID       string           `json:"run_id"`
	Digest      string           `json:"digest"`
	Refs        int64            `json:"refs"`
	Fingerprint Fingerprint      `json:"fingerprint"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	FailedFrac  float64          `json:"failed_frac"`
	Failures    []string         `json:"failures,omitempty"`
	Metrics     map[string]Value `json:"metrics"`
	Samples     []Sample         `json:"samples"`
	SetupS      []float64        `json:"setup_s"`
	// Seconds is the timed loop's budget.
	Seconds float64 `json:"seconds"`
	// Speed holds the calibration kernel's samples; Slowdown and
	// SetupSlowdown are the host slowdowns the timed loop's and set-up's
	// times were corrected for.
	Speed         Speed   `json:"speed"`
	Slowdown      float64 `json:"slowdown"`
	SetupSlowdown float64 `json:"setup_slowdown"`
	// LayerSelfS is the ladder's self time per layer (traced runs).
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
	LadderWall float64            `json:"ladder_wall_s,omitempty"`
	// LadderPlainWall is the ladder's wall time with spans off.
	LadderPlainWall float64 `json:"ladder_plain_wall_s,omitempty"`
	TraceFile       string  `json:"trace_file,omitempty"`
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// options are a run's settings.
type options struct {
	Seed     uint64
	Seconds  float64
	Traced   bool
	CacheDir string
	OutDir   string
	// RefInProcess computes a missing reference in this process instead
	// of a child process (tests; the child keeps its memory out of
	// peak_rss_mb).
	RefInProcess bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("texbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: village-sweep or city-fast")
	seed := fs.Uint64("seed", CommittedSeed, "input seed")
	secs := fs.Float64("seconds", RunSeconds, "time budget of the timed loop; results of other lengths are not comparable with the baseline")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced ladder run")
	cacheDir := fs.String("cache-dir", filepath.Join("texbench", ".cache"), "directory of cached references")
	outDir := fs.String("out", filepath.Join("texbench", "out"), "directory of result records and traces")
	refOnly := fs.Bool("reference", false, "compute and cache the reference, then exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	d, err := Lookup(*name)
	if err != nil || (*traced != 0 && *traced != 1) || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "texbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *traced, *secs)
		os.Exit(2)
	}
	o := options{Seed: *seed, Seconds: *secs, Traced: *traced == 1, CacheDir: *cacheDir, OutDir: *outDir}
	if *refOnly {
		if err := referenceMain(d, o); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	res, err := Run(d, o, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	line, err := json.Marshal(summary{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// referenceKey identifies the build and configuration a reference
// belongs to.
func referenceKey() (string, error) {
	bh, err := binaryHash()
	if err != nil {
		return "", err
	}
	return bh + "-" + ConfigHash(), nil
}

// referenceMain is the child-process mode: compute and cache.
func referenceMain(d Def, o options) error {
	key, err := referenceKey()
	if err != nil {
		return err
	}
	ref, err := ComputeReference(d, o.Seed, key)
	if err != nil {
		return err
	}
	return SaveReference(o.CacheDir, ref)
}

// ensureReference loads the cached reference, computing it first when
// none is cached for this build.
func ensureReference(d Def, o options, stderr io.Writer) (*Reference, error) {
	key, err := referenceKey()
	if err != nil {
		return nil, err
	}
	if ref, ok, err := LoadReference(o.CacheDir, d.Name, o.Seed, key); err != nil || ok {
		return ref, err
	}
	if o.RefInProcess {
		ref, err := ComputeReference(d, o.Seed, key)
		if err != nil {
			return nil, err
		}
		return ref, SaveReference(o.CacheDir, ref)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-reference", "-workload", d.Name,
		"-seed", strconv.FormatUint(o.Seed, 10), "-cache-dir", o.CacheDir)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("texbench: reference for %s seed %d: %w", d.Name, o.Seed, err)
	}
	ref, ok, err := LoadReference(o.CacheDir, d.Name, o.Seed, key)
	if err == nil && !ok {
		err = errors.New("texbench: reference process wrote no reference")
	}
	return ref, err
}

// Run executes one benchmark run of d and prints its report to stdout
// (every line but the summary, which the caller prints).
func Run(d Def, o options, stdout, stderr io.Writer) (*Result, error) {
	ref, err := ensureReference(d, o, stderr)
	if err != nil {
		return nil, err
	}
	clock := telemetry.NewWallClock()
	setup, err := RunSetup(d, o.Seed, clock)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Workload: d.Name, Seed: o.Seed, Traced: o.Traced,
		RunID:       fmt.Sprintf("%s-s%d-p%d", d.Name, o.Seed, os.Getpid()),
		Digest:      ref.Digest,
		Refs:        ref.Refs,
		Fingerprint: MachineFingerprint(o.Seed),
		Metrics:     map[string]Value{},
	}
	timed, err := RunTimed(d, setup, ref, clock, o.Seconds)
	if err != nil {
		return nil, err
	}
	res.Seconds = o.Seconds
	res.SetupS = setup.Seconds
	res.Samples = timed.Samples
	res.Speed = timed.Speed
	res.Slowdown, res.SetupSlowdown = slowdowns(timed)
	res.Attempted += timed.Attempted
	res.Failed += timed.Failed
	res.Failures = append(res.Failures, timed.Failures...)

	values := map[string]float64{}
	if o.Traced {
		plain, err := RunLadder(d, setup.W, res.RunID, false)
		if err != nil {
			return nil, err
		}
		lad, err := RunLadder(d, setup.W, res.RunID, true)
		if err != nil {
			return nil, err
		}
		if timed.Last != nil {
			for i, c := range lad.Counters {
				if diffs := DiffExact(c, timed.Last.Totals[i]); len(diffs) > 0 {
					res.Failures = append(res.Failures, fmt.Sprintf("ladder %s: %v", ref.Specs[i], diffs))
					res.Failed++
				}
			}
			res.Attempted += len(lad.Counters)
		}
		res.LayerSelfS = lad.BusyS
		res.LadderWall = lad.WallS
		res.LadderPlainWall = plain.WallS
		if res.TraceFile, err = writeTrace(o.OutDir, res.RunID, lad.Trace); err != nil {
			return nil, err
		}
		layerValues(values, d, timed, lad, setup, ref, res)
	} else {
		endToEndValues(values, timed, setup, ref, res)
	}
	for _, m := range metricTable {
		if v, ok := values[m.Name]; ok {
			res.Metrics[m.Name] = Value{v, m.Unit}
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted > 0 {
		res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	path, err := writeResult(o.OutDir, res)
	if err != nil {
		return nil, err
	}
	return res, report(stdout, res, path)
}

// slowdowns returns the host slowdowns the timed loop's and set-up's
// times are corrected for: the timed loop's at the engine's measured
// processor use, set-up's (single-threaded) at one worker.
func slowdowns(t *Timed) (timed, setup float64) {
	wall := median(column(t.Samples, func(s Sample) float64 { return s.WallS }))
	cpu := median(column(t.Samples, func(s Sample) float64 { return s.CPUS }))
	return t.Speed.Slowdown(div(cpu, wall)), t.Speed.Slowdown(1)
}

// endToEndValues fills the end-to-end metrics of an untraced run. Times
// are in unit-speed seconds, corrected for the host's slowdown.
func endToEndValues(v map[string]float64, t *Timed, s *Setup, ref *Reference, res *Result) {
	wall := correct(median(column(t.Samples, func(s Sample) float64 { return s.WallS })), res.Slowdown)
	v["wall_s"] = wall
	v["mrefs_per_s"] = div(float64(ref.Refs), wall) / 1e6
	v["peak_rss_mb"] = peakRSSMB()
	v["setup_s"] = correct(median(s.Seconds), res.SetupSlowdown)
}

// layerValues fills the per-layer metrics of a traced run.
func layerValues(v map[string]float64, d Def, t *Timed, lad *LadderResult, s *Setup, ref *Reference, res *Result) {
	med := func(f func(Sample) float64) float64 { return median(column(t.Samples, f)) }
	wall := med(func(s Sample) float64 { return s.WallS })
	cpu := med(func(s Sample) float64 { return s.CPUS })
	b := lad.BusyS
	busy := 0.0
	for _, l := range engineLayers(d.Kind) {
		busy += b[l]
	}
	ns := func(busyS float64, n int64) float64 { return div(busyS*1e9, float64(n)) }

	v["cache.l1.accesses"] = float64(lad.L1Accesses)
	v["cache.l1.hit_ratio"] = 1 - div(float64(lad.L1Misses), float64(lad.L1Accesses))
	v["cache.l1.ns_per_access"] = ns(b[layerL1], lad.L1Accesses)
	// Hierarchy accesses of the exact engines: one per reference per
	// spec. The fast engine models every spec and makes none.
	v["cache.hier_accesses"] = 0
	if d.Kind != KindFast {
		v["cache.hier_accesses"] = float64(lad.Texels) * float64(len(lad.Counters))
	}
	v["cache.busy_s"] = b[layerL1] + b[layerL2] + b[layerTLB]
	v["cache.l2.accesses"] = float64(lad.L2Accesses)
	v["cache.l2.full_hit_ratio"] = div(float64(lad.L2FullHits), float64(lad.L2Accesses))
	v["cache.l2.evictions"] = float64(lad.L2Evictions)
	v["cache.l2.ns_per_access"] = ns(b[layerL2], lad.L2Accesses)
	v["cache.tlb.lookups"] = float64(lad.TLBLookups)
	v["cache.tlb.hit_ratio"] = div(float64(lad.TLBHits), float64(lad.TLBLookups))
	v["cache.tlb.ns_per_lookup"] = ns(b[layerTLB], lad.TLBLookups)
	if lad.TraceBytes > 0 {
		v["trace.bytes_per_ref"] = div(float64(lad.TraceBytes), float64(lad.Texels))
		v["trace.encode_ns_per_ref"] = ns(b[layerEncode], lad.Texels)
		v["trace.decode_ns_per_ref"] = ns(b[layerDecode], lad.Texels)
	} else {
		v["trace.bytes_per_ref"], v["trace.encode_ns_per_ref"], v["trace.decode_ns_per_ref"] = 0, 0, 0
	}
	v["trace.busy_s"] = b[layerEncode] + b[layerDecode]
	v["texture.addr_calls"] = float64(lad.AddrCalls)
	v["texture.ns_per_addr"] = ns(b[layerTexture], lad.AddrCalls)
	v["texture.busy_s"] = b[layerTexture]
	v["raster.frames"] = float64(lad.Frames)
	v["raster.texels"] = float64(lad.Texels)
	v["raster.busy_s"] = b[layerRaster]
	v["raster.ns_per_texel"] = ns(b[layerRaster], lad.Texels)
	v["telemetry.profile_ns_per_ref"] = ns(b[layerTelemetry], lad.ProfileRefs)
	v["telemetry.busy_s"] = b[layerTelemetry]
	v["model.predict_s"] = b[layerModel]
	v["model_err_max_pp"] = 0
	if d.Kind == KindFast && t.Last != nil {
		v["model_err_max_pp"] = ModelErrPP(t.Last.Cmp, ref.Totals)
	}
	v["workload.build_s"] = median(s.BuildSeconds)
	v["core.cpu_s"] = cpu
	v["core.cpu_util"] = div(cpu, wall*float64(runtime.GOMAXPROCS(0)))
	// Closure and residual compare the ladder's layer time with the
	// engine's CPU time. The ladder streams frame-sized arrays between
	// layers that the fused engines keep in registers, so it can take
	// longer than the engine (closure above 1); the residual, the
	// engine's own cost beyond its layers, is then unresolved and
	// reported as 0.
	v["core.residual_s"] = math.Max(0, cpu-busy)
	v["core.closure"] = div(busy, cpu)
	v["runtime.alloc_mb"] = med(func(s Sample) float64 { return s.AllocMB })
	v["runtime.gc_cycles"] = med(func(s Sample) float64 { return s.GCCycles })
	v["runtime.gc_pause_s"] = med(func(s Sample) float64 { return s.GCPauseS })
	v["ladder.overhead_ratio"] = div(res.LadderWall, res.LadderPlainWall)
	v["host.wall_raw_s"] = wall
	v["host.slowdown"] = res.Slowdown
}

// div is a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace exports the ladder's spans as Chrome trace_event JSON.
func writeTrace(dir, runID string, tr *telemetry.Trace) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, runID+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return "", err
	}
	return path, f.Close()
}

// writeResult writes the run's full record.
func writeResult(dir string, r *Result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mode := "e2e"
	if r.Traced {
		mode = "layers"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.json", r.RunID, mode))
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints the human-readable lines of a run.
func report(w io.Writer, r *Result, path string) error {
	fp := r.Fingerprint
	lines := []string{
		fmt.Sprintf("texbench %s seed=%d digest=%s refs=%d run=%s", r.Workload, r.Seed, r.Digest, r.Refs, r.RunID),
		fmt.Sprintf("fingerprint cpu=%q nproc=%d gomaxprocs=%d go=%s config=%s",
			fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.ConfigHash),
		fmt.Sprintf("iterations=%d setups=%d", len(r.Samples), len(r.SetupS)),
	}
	for _, m := range metricTable {
		if v, ok := r.Metrics[m.Name]; ok {
			lines = append(lines, fmt.Sprintf("%-30s %16.6f %s", m.Name, v.Value, v.Unit))
		}
	}
	lines = append(lines, fmt.Sprintf("%-30s %16.6f (%d of %d checks failed)", "failed_frac", r.FailedFrac, r.Failed, r.Attempted))
	for _, f := range r.Failures {
		lines = append(lines, "FAIL "+f)
	}
	if r.TraceFile != "" {
		lines = append(lines, "trace "+r.TraceFile)
	}
	lines = append(lines, "result "+path)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// compareMain is `texbench compare old.json new.json`.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: texbench compare old.json new.json")
		return 2
	}
	old, err := LoadResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cur, err := LoadResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	bad, err := Compare(os.Stdout, old, cur)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if bad {
		return 1
	}
	return 0
}
