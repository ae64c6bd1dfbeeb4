package core

import (
	"fmt"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

func l2spec(name string, l1, mb int, tlb int) CacheSpec {
	return CacheSpec{
		Name:    name,
		L1Bytes: l1,
		L2: &cache.L2Config{
			SizeBytes: mb << 20,
			Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
			Policy:    cache.Clock,
		},
		TLBEntries: tlb,
	}
}

// canonicalSweepSpecs hand-rolls the 13 cache specs of
// experiments.SweepSpecs() (this internal test package cannot import
// experiments without a cycle): the pull-architecture L1 sizes, the L2
// sizes behind a 2 KB L1, and the TLB entry sweep, all with the cache
// studies' fixed 16x16 L2 tiles.
func canonicalSweepSpecs() []CacheSpec {
	specs := []CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 << 10},
		{Name: "pull-4k", L1Bytes: 4 << 10},
		{Name: "pull-8k", L1Bytes: 8 << 10},
		{Name: "pull-16k", L1Bytes: 16 << 10},
		{Name: "pull-32k", L1Bytes: 32 << 10},
		l2spec("l2-2m", 2<<10, 2, 16),
		l2spec("l2-4m", 2<<10, 4, 0),
		l2spec("l2-8m", 2<<10, 8, 0),
		l2spec("l2-2m-16k", 16<<10, 2, 0),
	}
	for _, tlb := range []int{1, 2, 4, 8} {
		specs = append(specs, l2spec(fmt.Sprintf("tlb-%d", tlb), 2<<10, 2, tlb))
	}
	return specs
}

// withLayout returns s with its L2 tiled at the given edge.
func withLayout(s CacheSpec, edge int) CacheSpec {
	l2 := *s.L2
	l2.Layout = texture.TileLayout{L2Size: edge, L1Size: 4}
	s.L2 = &l2
	return s
}

// TestRunComparisonMatchesIndividualRuns is the exact engine's identity
// contract: sharing one L1 per geometry and one translation per L2
// layout must not move any spec's numbers. Every spec set below shares
// cache levels in a different shape, and every spec's Totals and
// per-frame Counters must equal a plain Run of that spec alone, which
// builds its own unshared hierarchy.
func TestRunComparisonMatchesIndividualRuns(t *testing.T) {
	render := testCfg()
	render.Width, render.Height, render.Frames = 160, 120, 3

	random := l2spec("l2-random", 2<<10, 2, 0)
	random.L2.Policy = cache.Random
	unsectored := l2spec("l2-nosector", 2<<10, 2, 4)
	unsectored.L2.NoSectorMapping = true
	ways := func(s CacheSpec, n int) CacheSpec { s.L1Ways = n; return s }

	sets := []struct {
		name  string
		specs []CacheSpec
		nodes int // distinct normalized L1 geometries
	}{
		{"pull and L2 on one L1", []CacheSpec{
			{Name: "pull-2k", L1Bytes: 2 << 10},
			l2spec("l2-2m", 2<<10, 2, 16),
			l2spec("l2-4m", 2<<10, 4, 0),
		}, 1},
		{"same L1 and L2, different TLBs", []CacheSpec{
			l2spec("tlb-0", 2<<10, 2, 0),
			l2spec("tlb-1", 2<<10, 2, 1),
			l2spec("tlb-4", 2<<10, 2, 4),
			l2spec("tlb-16", 2<<10, 2, 16),
		}, 1},
		{"direct-mapped vs 2-way at equal bytes", []CacheSpec{
			ways(CacheSpec{Name: "pull-dm", L1Bytes: 2 << 10}, 1),
			ways(l2spec("l2-dm", 2<<10, 2, 16), 1),
			ways(CacheSpec{Name: "pull-2way", L1Bytes: 2 << 10}, 2),
			ways(l2spec("l2-2way", 2<<10, 2, 16), 2),
		}, 2},
		{"L1Ways 0 vs 2", []CacheSpec{
			{Name: "pull-default", L1Bytes: 2 << 10},
			ways(CacheSpec{Name: "pull-2way", L1Bytes: 2 << 10}, 2),
			ways(l2spec("l2-2way", 2<<10, 2, 8), 2),
			l2spec("l2-default", 2<<10, 4, 2),
		}, 1},
		{"two L2 tile layouts", []CacheSpec{
			l2spec("l2-16", 2<<10, 2, 16),
			withLayout(l2spec("l2-32", 2<<10, 2, 16), 32),
			withLayout(l2spec("l2-8-16k", 16<<10, 2, 0), 8),
			l2spec("l2-16-16k", 16<<10, 2, 16),
		}, 2},
		{"NoSectorMapping", []CacheSpec{
			l2spec("l2-sector", 2<<10, 2, 4),
			unsectored,
		}, 1},
		{"random policy", []CacheSpec{
			random,
			l2spec("l2-clock", 2<<10, 2, 0),
			{Name: "pull-2k", L1Bytes: 2 << 10},
		}, 1},
		{"SweepSpecs", canonicalSweepSpecs(), 5},
	}
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			tex := workload.Village().Scene.Textures
			tex.MustPrepare(texture.CanonicalL1())
			sink, err := buildMultiSink(tex, set.specs)
			if err != nil {
				t.Fatal(err)
			}
			if len(sink.nodes) != set.nodes {
				t.Fatalf("built %d L1 nodes, want %d", len(sink.nodes), set.nodes)
			}
			cmp, err := RunComparison(workload.Village(), render, set.specs)
			if err != nil {
				t.Fatal(err)
			}
			for i, spec := range set.specs {
				alone, err := Run(workload.Village(), specConfig(render, spec))
				if err != nil {
					t.Fatal(err)
				}
				got := cmp.Results[i]
				if got.Totals != alone.Totals {
					t.Errorf("%s: totals differ:\ncomparison %+v\nalone      %+v",
						spec.Name, got.Totals, alone.Totals)
				}
				if len(got.Frames) != len(alone.Frames) {
					t.Fatalf("%s: %d frames, alone %d", spec.Name, len(got.Frames), len(alone.Frames))
				}
				for f := range got.Frames {
					if got.Frames[f].Counters != alone.Frames[f].Counters {
						t.Errorf("%s frame %d: counters differ:\ncomparison %+v\nalone      %+v",
							spec.Name, f, got.Frames[f].Counters, alone.Frames[f].Counters)
					}
				}
			}
		})
	}
}

// TestMultiSinkProbesEachL1Once pins the sharing itself: one texel
// through the 13-spec sweep's sink is one access on each of its 5 L1
// caches, seen by every sibling hierarchy.
func TestMultiSinkProbesEachL1Once(t *testing.T) {
	set := workload.Village().Scene.Textures
	set.MustPrepare(texture.CanonicalL1())
	specs := canonicalSweepSpecs()
	sink, err := buildMultiSink(set, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.nodes) != 5 {
		t.Fatalf("13-spec sweep built %d L1 nodes, want 5", len(sink.nodes))
	}
	sink.Texel(0, 3, 5, 0)
	for n, node := range sink.nodes {
		if got := node.l1.Stats().Accesses; got != 1 {
			t.Errorf("node %d: %d L1 accesses for one texel, want 1", n, got)
		}
	}
	for i, sp := range sink.specs {
		if got := sp.hier.Counters().L1.Accesses; got != 1 {
			t.Errorf("%s sees %d L1 accesses, want 1", specs[i].Name, got)
		}
	}
}

func TestRunComparisonSharedLayouts(t *testing.T) {
	render := testCfg()
	render.Frames = 4
	specs := []CacheSpec{
		l2spec("a", 2*1024, 2, 0),
		l2spec("b", 2*1024, 4, 0),
		l2spec("c", 16*1024, 2, 0),
	}
	cmp, err := RunComparison(workload.Village(), render, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Larger L2 at same L1 must not increase host traffic.
	if cmp.Results[1].Totals.HostBytes > cmp.Results[0].Totals.HostBytes {
		t.Error("4MB L2 worse than 2MB")
	}
	// Larger L1 at same L2 must not increase L1 misses.
	if cmp.Results[2].Totals.L1.Misses > cmp.Results[0].Totals.L1.Misses {
		t.Error("16KB L1 missed more than 2KB")
	}
	// All specs saw the same reference stream.
	if cmp.Results[0].Totals.L1.Accesses != cmp.Results[2].Totals.L1.Accesses {
		t.Error("specs saw different access counts")
	}
}

func TestRunComparisonWithStats(t *testing.T) {
	render := testCfg()
	render.Frames = 4
	render.StatLayouts = []texture.TileLayout{{L2Size: 16, L1Size: 4}}
	cmp, err := RunComparison(workload.Village(), render,
		[]CacheSpec{{Name: "pull", L1Bytes: 2 * 1024}})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Results[0].Summary == nil {
		t.Fatal("stats not collected")
	}
	if len(cmp.FramePixels) != 4 {
		t.Errorf("frame pixels = %d entries", len(cmp.FramePixels))
	}
}

func TestRunComparisonErrors(t *testing.T) {
	if _, err := RunComparison(workload.Village(), testCfg(), nil); err == nil {
		t.Error("empty specs accepted")
	}
	bad := []CacheSpec{{Name: "bad", L1Bytes: 100}}
	if _, err := RunComparison(workload.Village(), testCfg(), bad); err == nil {
		t.Error("invalid L1 size accepted")
	}
}
