package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// canonicalSweepSpecs hand-rolls the 13 cache specs of
// experiments.SweepSpecs() (this internal test package cannot import
// experiments without a cycle): the pull-architecture L1 sizes, the L2
// sizes behind a 2 KB L1, and the TLB entry sweep, all with the cache
// studies' fixed 16x16 L2 tiles.
func canonicalSweepSpecs() []CacheSpec {
	layout := texture.TileLayout{L2Size: 16, L1Size: 4}
	l2 := func(name string, l1Bytes, l2MB, tlb int) CacheSpec {
		return CacheSpec{
			Name:    name,
			L1Bytes: l1Bytes,
			L2: &cache.L2Config{
				SizeBytes: l2MB << 20,
				Layout:    layout,
				Policy:    cache.Clock,
			},
			TLBEntries: tlb,
		}
	}
	specs := []CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 << 10},
		{Name: "pull-4k", L1Bytes: 4 << 10},
		{Name: "pull-8k", L1Bytes: 8 << 10},
		{Name: "pull-16k", L1Bytes: 16 << 10},
		{Name: "pull-32k", L1Bytes: 32 << 10},
		l2("l2-2m", 2<<10, 2, 16),
		l2("l2-4m", 2<<10, 4, 0),
		l2("l2-8m", 2<<10, 8, 0),
		l2("l2-2m-16k", 16<<10, 2, 0),
	}
	for _, tlb := range []int{1, 2, 4, 8} {
		specs = append(specs, l2(fmt.Sprintf("tlb-%d", tlb), 2<<10, 2, tlb))
	}
	return specs
}

func sweepRenderConfig() Config {
	return Config{
		Width:  192,
		Height: 144,
		Frames: 4,
		Mode:   raster.Trilinear,
	}
}

// parallelCounts returns the replay pool sizes the identity tests sweep:
// the smallest real pool, and GOMAXPROCS when it is larger.
func parallelCounts() []int {
	counts := []int{2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		counts = append(counts, p)
	}
	return counts
}

// checkParallelMatchesSerial runs the 13-spec sweep under base at every
// parallelCounts pool size and demands a Comparison deeply equal to the
// serial reference engine's (base with Parallelism 1).
func checkParallelMatchesSerial(t *testing.T, base Config) {
	t.Helper()
	w := workload.Village()
	specs := canonicalSweepSpecs()

	base.Parallelism = 1
	serial, err := RunComparison(w, base, specs)
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range parallelCounts() {
		render := base
		render.Parallelism = par
		cmp, err := RunComparison(w, render, specs)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		// The engine knob is recorded in the configs; normalise it
		// before demanding identity of everything else.
		cmp.Render.Parallelism = serial.Render.Parallelism
		for i := range cmp.Results {
			cmp.Results[i].Config.Parallelism = serial.Results[i].Config.Parallelism
		}
		for i, spec := range specs {
			if serial.Results[i].Totals != cmp.Results[i].Totals {
				t.Errorf("parallelism=%d spec %q: totals differ:\nserial   %+v\nparallel %+v",
					par, spec.Name, serial.Results[i].Totals, cmp.Results[i].Totals)
			}
		}
		if !reflect.DeepEqual(serial.Reuse, cmp.Reuse) {
			t.Errorf("parallelism=%d: reuse histogram differs", par)
		}
		if !reflect.DeepEqual(serial.Results[0].Summary, cmp.Results[0].Summary) {
			t.Errorf("parallelism=%d: working-set summary differs", par)
		}
		if !reflect.DeepEqual(serial, cmp) {
			t.Errorf("parallelism=%d: comparison differs beyond totals (frames, pixels, pipeline stats)", par)
		}
	}
}

// TestParallelEngineMatchesSerial is the render-once / replay-many
// engine's end-to-end contract: the full 13-spec sweep assembles a
// Comparison deeply equal to the serial reference engine's at every pool
// size. It runs at a tiny scale so the race lane covers the engine on
// every CI run; it is deliberately not gated.
func TestParallelEngineMatchesSerial(t *testing.T) {
	checkParallelMatchesSerial(t, sweepRenderConfig())
}

// TestParallelEngineStatsAndReuse covers the engine's inline collector
// path: the render pass feeds the §4 working-set collector and the
// reuse-distance probe while replay groups consume its chunks, and both
// carry cross-frame state (new-block stamps, LRU stack distances) that
// must match the serial fan-out exactly.
func TestParallelEngineStatsAndReuse(t *testing.T) {
	render := sweepRenderConfig()
	render.StatLayouts = []texture.TileLayout{{L2Size: 16, L1Size: 4}}
	render.CollectReuse = true
	checkParallelMatchesSerial(t, render)
}
