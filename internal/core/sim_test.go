package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// testCfg is a small, fast configuration used across tests.
func testCfg() Config {
	return Config{
		Width: 256, Height: 192,
		Frames:  10,
		Mode:    raster.Bilinear,
		L1Bytes: 2 * 1024,
	}
}

func withL2(cfg Config, mb int) Config {
	cfg.L2 = &cache.L2Config{
		SizeBytes: mb << 20,
		Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
		Policy:    cache.Clock,
	}
	cfg.TLBEntries = 16
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := testCfg()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := testCfg()
	bad.Width = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero width accepted")
	}
	bad = testCfg()
	bad.L1Bytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero L1 accepted")
	}
	bad = withL2(testCfg(), 2)
	bad.L2.Layout = texture.TileLayout{L2Size: 3, L1Size: 4}
	if err := bad.Validate(); err == nil {
		t.Error("bad L2 layout accepted")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

// TestHostileCacheConfigsReturnErrors feeds cache configurations that
// pass a plain layout check but cannot be built as the hierarchy builds
// them (the L2 sub-block is forced to the 4x4 L1 tile) to every entry
// point. Each must return a *ConfigError, never panic. An unknown filter
// mode is fed to the same entry points plus RecordTrace: those that
// rasterize must return an error, and none may panic.
func TestHostileCacheConfigsReturnErrors(t *testing.T) {
	small := testCfg()
	small.Width, small.Height, small.Frames = 64, 48, 2
	var stream bytes.Buffer
	if _, err := RecordTrace(workload.Village(), small, &stream); err != nil {
		t.Fatal(err)
	}
	hostile := []struct {
		name   string
		mutate func(*Config)
		// mode marks the filter-mode case, which is not a cache
		// configuration and so yields no *ConfigError.
		mode bool
	}{
		{"L2 tile below the L1 tile", func(c *Config) { c.L2.Layout = texture.TileLayout{L2Size: 2, L1Size: 1} }, false},
		{"unknown policy", func(c *Config) { c.L2.Policy = cache.PolicyKind(99) }, false},
		{"size not a block multiple", func(c *Config) { c.L2.SizeBytes = 1000 }, false},
		{"negative TLB entries", func(c *Config) { c.TLBEntries = -1 }, false},
		{"unknown sample mode", func(c *Config) { c.Mode = raster.SampleMode(99) }, true},
	}
	// comparison drives RunComparison with a good spec next to the
	// hostile one, partitioned into the given number of L1 nodes: one
	// shared L1 geometry, or a distinct one for the good spec.
	comparison := func(partitions int, fast bool) func(Config) error {
		return func(cfg Config) error {
			render := cfg
			render.L2, render.TLBEntries = nil, 0
			render.FastSweep = fast
			specs := []CacheSpec{
				l2spec("good", partitions*cfg.L1Bytes, 2, 16),
				{Name: "hostile", L1Bytes: cfg.L1Bytes, L2: cfg.L2, TLBEntries: cfg.TLBEntries},
			}
			_, err := RunComparison(workload.Village(), render, specs)
			return err
		}
	}
	// cache marks the entry points that build cache hierarchies, render
	// those that rasterize.
	entries := []struct {
		name          string
		cache, render bool
		run           func(Config) error
	}{
		{"Run", true, true, func(cfg Config) error { _, err := Run(workload.Village(), cfg); return err }},
		// par1/par2: the exact engine over one or two L1 partitions.
		{"RunComparison/par1", true, true, comparison(1, false)},
		{"RunComparison/par2", true, true, comparison(2, false)},
		{"RunComparison/fast", true, true, comparison(1, true)},
		{"ReplayTrace", true, false, func(cfg Config) error {
			_, err := ReplayTrace(bytes.NewReader(stream.Bytes()), workload.Village().Scene.Textures, cfg)
			return err
		}},
		// The builders check again for callers that skip Validate.
		{"buildHierarchy", true, false, func(cfg Config) error {
			_, _, err := buildHierarchy(workload.Village().Scene.Textures, cfg)
			return err
		}},
		{"buildMultiSink", true, false, func(cfg Config) error {
			set := workload.Village().Scene.Textures
			set.MustPrepare(texture.CanonicalL1())
			spec := CacheSpec{Name: "hostile", L1Bytes: cfg.L1Bytes, L2: cfg.L2, TLBEntries: cfg.TLBEntries}
			_, err := buildMultiSink(set, []CacheSpec{spec})
			return err
		}},
		{"RecordTrace", false, true, func(cfg Config) error {
			_, err := RecordTrace(workload.Village(), cfg, io.Discard)
			return err
		}},
	}
	for _, h := range hostile {
		for _, e := range entries {
			if !h.mode && !e.cache {
				continue
			}
			t.Run(h.name+"/"+e.name, func(t *testing.T) {
				cfg := withL2(small, 2)
				l2 := *cfg.L2
				cfg.L2 = &l2
				h.mutate(&cfg)
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				err := e.run(cfg)
				if h.mode {
					if e.render && err == nil {
						t.Fatal("err = nil, want an error")
					}
					return
				}
				var ce *ConfigError
				if !errors.As(err, &ce) {
					t.Fatalf("err = %v, want a *ConfigError", err)
				}
			})
		}
	}
}

func TestRunPullArchitecture(t *testing.T) {
	res, err := Run(workload.Village(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 10 {
		t.Fatalf("frames = %d", len(res.Frames))
	}
	if res.Totals.L1.Accesses == 0 {
		t.Fatal("no texel accesses")
	}
	// The pull architecture downloads a 64-byte L1 tile per miss.
	if want := res.Totals.L1.Misses * cache.L1LineBytes; res.Totals.HostBytes != want {
		t.Errorf("HostBytes = %d, want %d", res.Totals.HostBytes, want)
	}
	// L1 hit rates on real workloads are high (paper Table 2: > 0.95).
	if hr := res.Totals.L1.HitRate(); hr < 0.90 {
		t.Errorf("L1 hit rate = %.3f, want > 0.90", hr)
	}
	// Per-frame deltas must sum to the totals.
	var host int64
	for _, f := range res.Frames {
		host += f.Counters.HostBytes
	}
	if host != res.Totals.HostBytes {
		t.Errorf("frame deltas sum %d != totals %d", host, res.Totals.HostBytes)
	}
}

func TestL2SavesHostBandwidth(t *testing.T) {
	w := workload.Village()
	pull, err := Run(w, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Run(workload.Village(), withL2(testCfg(), 2))
	if err != nil {
		t.Fatal(err)
	}
	// The headline result: even a 2 MB L2 slashes host bandwidth. At
	// paper scale the factor is 5-18x; at test scale demand at least 3x.
	ratio := float64(pull.Totals.HostBytes) / float64(l2.Totals.HostBytes)
	if ratio < 3 {
		t.Errorf("host bandwidth ratio pull/L2 = %.2f, want >= 3", ratio)
	}
	// L1 behaviour must be identical across architectures (same stream).
	if pull.Totals.L1.Misses != l2.Totals.L1.Misses {
		t.Errorf("L1 misses differ: pull %d vs L2 %d",
			pull.Totals.L1.Misses, l2.Totals.L1.Misses)
	}
	// L2 hit + partial + miss must equal L1 misses.
	if got := l2.Totals.L2.Accesses(); got != l2.Totals.L1.Misses {
		t.Errorf("L2 accesses %d != L1 misses %d", got, l2.Totals.L1.Misses)
	}
	// With L2, host bytes only flow on partial hits and misses.
	want := (l2.Totals.L2.PartialHits + l2.Totals.L2.FullMisses) * cache.L1LineBytes
	if l2.Totals.HostBytes != want {
		t.Errorf("HostBytes = %d, want %d", l2.Totals.HostBytes, want)
	}
}

func TestBiggerL1ReducesMisses(t *testing.T) {
	w := workload.Village()
	small, err := Run(w, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	big := testCfg()
	big.L1Bytes = 16 * 1024
	bigRes, err := Run(workload.Village(), big)
	if err != nil {
		t.Fatal(err)
	}
	if bigRes.Totals.L1.Misses >= small.Totals.L1.Misses {
		t.Errorf("16KB L1 misses (%d) >= 2KB L1 misses (%d)",
			bigRes.Totals.L1.Misses, small.Totals.L1.Misses)
	}
}

func TestBiggerL2ReducesHostBytes(t *testing.T) {
	a, err := Run(workload.City(), withL2(testCfg(), 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(workload.City(), withL2(testCfg(), 8))
	if err != nil {
		t.Fatal(err)
	}
	if b.Totals.HostBytes > a.Totals.HostBytes {
		t.Errorf("8MB L2 host bytes (%d) > 1MB L2 host bytes (%d)",
			b.Totals.HostBytes, a.Totals.HostBytes)
	}
}

func TestZBeforeTextureReducesTraffic(t *testing.T) {
	base, err := Run(workload.Village(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	zcfg := testCfg()
	zcfg.ZBeforeTexture = true
	z, err := Run(workload.Village(), zcfg)
	if err != nil {
		t.Fatal(err)
	}
	if z.Totals.L1.Accesses >= base.Totals.L1.Accesses {
		t.Errorf("z-before-texture accesses %d >= baseline %d",
			z.Totals.L1.Accesses, base.Totals.L1.Accesses)
	}
	var zp, bp int64
	for i := range z.Frames {
		zp += z.Frames[i].Pixels
		bp += base.Frames[i].Pixels
	}
	if zp >= bp {
		t.Errorf("z-before-texture pixels %d >= baseline %d", zp, bp)
	}
}

func TestStatsCollection(t *testing.T) {
	cfg := testCfg()
	cfg.Mode = raster.Point
	cfg.StatLayouts = []texture.TileLayout{{L2Size: 16, L1Size: 4}}
	res, err := Run(workload.City(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary == nil {
		t.Fatal("no summary")
	}
	if res.Summary.DepthComplexity <= 1 {
		t.Errorf("depth complexity = %v, want > 1", res.Summary.DepthComplexity)
	}
	ls, ok := res.Summary.Layout(texture.TileLayout{L2Size: 16, L1Size: 4})
	if !ok || ls.AvgBlocks == 0 {
		t.Fatal("no layout stats")
	}
	// Inter-frame locality: new blocks must be a small fraction of total.
	if ls.AvgNewBlocks/ls.AvgBlocks > 0.5 {
		t.Errorf("new/total blocks = %.2f, want < 0.5 (inter-frame locality)",
			ls.AvgNewBlocks/ls.AvgBlocks)
	}
	for _, f := range res.Frames {
		if f.Stats == nil {
			t.Fatal("frame missing stats")
		}
	}
}

func TestTraceReplayMatchesDirectRun(t *testing.T) {
	w := workload.City()
	cfg := withL2(testCfg(), 2)
	cfg.Frames = 6

	direct, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	frames, err := RecordTrace(workload.City(), cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 6 {
		t.Fatalf("recorded frames = %d", frames)
	}
	replayed, err := ReplayTrace(&buf, workload.City().Scene.Textures, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Transaction-exact equivalence between rendering and replay.
	if direct.Totals != replayed.Totals {
		t.Errorf("totals differ:\ndirect  %+v\nreplay  %+v",
			direct.Totals, replayed.Totals)
	}
	if len(direct.Frames) != len(replayed.Frames) {
		t.Fatalf("frame counts differ")
	}
	for i := range direct.Frames {
		if direct.Frames[i].Counters != replayed.Frames[i].Counters {
			t.Errorf("frame %d counters differ", i)
		}
		if direct.Frames[i].Pixels != replayed.Frames[i].Pixels {
			t.Errorf("frame %d pixels differ", i)
		}
	}
}

func TestAvgHostMBPerFrame(t *testing.T) {
	r := &Results{
		Frames: make([]FrameResult, 4),
		Totals: cache.Counters{HostBytes: 8 << 20},
	}
	if got := r.AvgHostMBPerFrame(); got != 2 {
		t.Errorf("AvgHostMBPerFrame = %v, want 2", got)
	}
	var empty Results
	if empty.AvgHostMBPerFrame() != 0 {
		t.Error("empty results nonzero")
	}
}

func TestTLBHitRateImprovesWithEntries(t *testing.T) {
	w := workload.Village()
	rates := make([]float64, 0, 3)
	for _, entries := range []int{1, 4, 16} {
		cfg := withL2(testCfg(), 2)
		cfg.Frames = 5
		cfg.TLBEntries = entries
		res, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w = workload.Village() // fresh scene: caches are per-run anyway
		rates = append(rates, res.Totals.TLB.HitRate())
	}
	if !(rates[0] < rates[1] && rates[1] < rates[2]) {
		t.Errorf("TLB hit rates not increasing: %v", rates)
	}
	// Paper Table 8: 16 entries capture > 90%.
	if rates[2] < 0.80 {
		t.Errorf("16-entry TLB hit rate = %.2f, want > 0.80", rates[2])
	}
}

func TestFramebufferSnapshot(t *testing.T) {
	cfg := testCfg()
	cfg.Frames = 1
	cfg.Framebuffer = true
	sim, err := NewSimulator(workload.Village(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	fb := sim.Framebuffer()
	if len(fb) != 256*192 {
		t.Fatalf("framebuffer len = %d", len(fb))
	}
	// The image must not be all background: count distinct colours.
	colours := map[texture.RGBA]bool{}
	for _, c := range fb {
		colours[c] = true
	}
	if len(colours) < 10 {
		t.Errorf("distinct colours = %d, want a real image", len(colours))
	}
}

func TestFramesDefaultToWorkloadCount(t *testing.T) {
	cfg := testCfg()
	cfg.Frames = 0
	sim, err := NewSimulator(workload.Village(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.cfg.Frames != workload.VillageFrames {
		t.Errorf("frames = %d, want %d", sim.cfg.Frames, workload.VillageFrames)
	}
}
