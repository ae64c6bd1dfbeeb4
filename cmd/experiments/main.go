// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all                # every experiment, reduced scale
//	experiments -exp table3 -scale full # one experiment at paper scale
//	experiments -exp list               # list experiment ids
//
// Scales: bench (256x192, fastest), reduced (512x384, default), full
// (1024x768 over the paper's 411/525 frames; slow).
//
// Telemetry and profiling: -metrics streams one record per simulated
// frame of every underlying run (JSONL, or CSV when the path ends in
// .csv); -manifest records the run's configuration hash, environment and
// stream totals; -cpuprofile / -memprofile write pprof profiles.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"texcache/internal/experiments"
	"texcache/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "experiment id, 'all', or 'list'")
	scaleName := flag.String("scale", "reduced", "bench | reduced | full")
	out := flag.String("o", "", "write output to file instead of stdout")
	parallel := flag.Int("parallel", 0,
		"worker pool size for prefetch and cache sweeps (0 = GOMAXPROCS, -1 = serial)")
	fast := flag.Bool("fast", false,
		"analytic cache sweeps: predict model-reachable specs from one reuse-profile pass; per-frame figures then report totals only")
	csvDir := flag.String("csv", "", "also export per-frame figure series as CSV into this directory")
	metricsPath := flag.String("metrics", "", "write every run's per-frame metric stream here (.csv = CSV, else JSONL)")
	manifestPath := flag.String("manifest", "", "write a run manifest (config hash, environment, totals) here")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write a heap profile here")
	flag.Parse()

	if *exp == "list" {
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var scale experiments.Scale
	switch *scaleName {
	case "bench":
		scale = experiments.Bench()
	case "reduced":
		scale = experiments.Reduced()
	case "full":
		scale = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		return 2
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() { _ = f.Close() }()
		w = f
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			_ = f.Close()
		}()
	}

	ctx := experiments.NewContext(scale, w)
	if *parallel < 0 {
		ctx.Parallelism = 1 // serial reference engine
	} else {
		ctx.Parallelism = *parallel
	}
	ctx.FastSweep = *fast

	var totals telemetry.Totals
	emitters := []telemetry.Emitter{&totals}
	var flushMetrics func() error
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		bw := bufio.NewWriter(f)
		var sink telemetry.Emitter
		var sinkErr func() error
		if strings.HasSuffix(*metricsPath, ".csv") {
			s := telemetry.NewCSV(bw)
			sink, sinkErr = s, s.Err
		} else {
			s := telemetry.NewJSONL(bw)
			sink, sinkErr = s, s.Err
		}
		emitters = append(emitters, sink)
		flushMetrics = func() error {
			if err := sinkErr(); err != nil {
				_ = f.Close()
				return err
			}
			if err := bw.Flush(); err != nil {
				_ = f.Close()
				return err
			}
			return f.Close()
		}
	}
	if *metricsPath != "" || *manifestPath != "" {
		ctx.Metrics = telemetry.Tee(emitters...)
	}

	run := func(e experiments.Experiment) int {
		start := time.Now() //texlint:ignore determinism progress timing on stderr only
		if err := e.Run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		//texlint:ignore determinism progress timing on stderr only
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
		return 0
	}

	if *exp == "all" {
		if *parallel >= 0 {
			start := time.Now() //texlint:ignore determinism progress timing on stderr only
			if err := ctx.Prefetch(*parallel); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			//texlint:ignore determinism progress timing on stderr only
			fmt.Fprintf(os.Stderr, "[prefetch done in %v]\n", time.Since(start).Round(time.Millisecond))
		}
		for _, e := range experiments.All() {
			if rc := run(e); rc != 0 {
				return rc
			}
		}
	} else {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -exp list\n", *exp)
			return 2
		}
		if rc := run(e); rc != 0 {
			return rc
		}
	}
	if rc := exportCSV(ctx, *csvDir); rc != 0 {
		return rc
	}

	if flushMetrics != nil {
		if err := flushMetrics(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: writing metrics:", err)
			return 1
		}
	}
	if *manifestPath != "" {
		m := telemetry.NewManifest("experiments")
		m.ConfigHash = telemetry.ConfigHash(
			scale.Name,
			fmt.Sprintf("%dx%d", scale.Width, scale.Height),
			"exp="+*exp,
		)
		m.Totals = totals.T
		f, err := os.Create(*manifestPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := m.WriteJSON(f); err != nil {
			_ = f.Close()
			fmt.Fprintln(os.Stderr, "experiments: writing manifest:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: writing manifest:", err)
			return 1
		}
	}
	return 0
}

func exportCSV(ctx *experiments.Context, dir string) int {
	if dir == "" {
		return 0
	}
	if err := ctx.ExportCSV(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "[csv series written to %s]\n", dir)
	return 0
}
