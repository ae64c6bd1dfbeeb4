//go:build texsan

package core

import (
	"testing"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// These tests exist for the texsan lane (go test -tags texsan ./...):
// they drive reduced Village and City animations through the paper's
// baseline hierarchy with the runtime invariant sanitizer compiled in, so
// every access replays the counter identities and every 4096th access
// cross-checks the page table, BRL and weak L1/L2 inclusion. A panic
// inside the cache package fails the test.

// sanConfig is the paper's baseline configuration at a reduced scale.
func sanConfig(frames int) Config {
	return Config{
		Width: 256, Height: 192, Frames: frames,
		Mode:    raster.Trilinear,
		L1Bytes: 2 << 10,
		L2: &cache.L2Config{
			SizeBytes: 2 << 20,
			Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
			Policy:    cache.Clock,
		},
		TLBEntries: 16,
	}
}

func runSanitized(t *testing.T, w *workload.Workload, cfg Config) {
	t.Helper()
	res, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.L1.Accesses == 0 || res.Totals.L2.Accesses() == 0 {
		t.Fatalf("%s produced no cache activity: %+v", w.Name, res.Totals)
	}
}

func TestTexsanVillageReduced(t *testing.T) {
	runSanitized(t, workload.Village(), sanConfig(12))
}

func TestTexsanCityReduced(t *testing.T) {
	runSanitized(t, workload.City(), sanConfig(12))
}

func TestTexsanVillagePullArchitecture(t *testing.T) {
	cfg := sanConfig(6)
	cfg.L2 = nil
	cfg.TLBEntries = 0
	w := workload.Village()
	res, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.HostBytes != res.Totals.L1.Misses*cache.L1LineBytes {
		t.Fatalf("pull bandwidth identity violated: %+v", res.Totals)
	}
}

// TestTexsanSharedL1Sweep runs the sanitizer on the exact sweep engine's
// shared L1: pull, three L2 sizes and TLB variants all sit on one 2 KB
// L1 cache, so every sibling hierarchy replays its per-access identities
// and deep scans against an L1 it does not drive alone.
func TestTexsanSharedL1Sweep(t *testing.T) {
	render := sanConfig(6)
	render.L2, render.TLBEntries = nil, 0
	specs := []CacheSpec{
		{Name: "pull-2k", L1Bytes: 2 << 10},
		l2spec("l2-2m", 2<<10, 2, 16),
		l2spec("l2-4m", 2<<10, 4, 0),
		l2spec("l2-8m", 2<<10, 8, 0),
		l2spec("tlb-1", 2<<10, 2, 1),
		l2spec("tlb-4", 2<<10, 2, 4),
	}
	cmp, err := RunComparison(workload.Village(), render, specs)
	if err != nil {
		t.Fatal(err)
	}
	first := cmp.Results[0].Totals.L1
	if first.Accesses == 0 {
		t.Fatal("sweep produced no cache activity")
	}
	for i, res := range cmp.Results {
		if res.Totals.L1 != first {
			t.Errorf("%s: L1 stats %+v differ from the shared L1's %+v", specs[i].Name, res.Totals.L1, first)
		}
		if specs[i].L2 != nil && res.Totals.L2.Accesses() != first.Misses {
			t.Errorf("%s: %d L2 accesses, want %d L1 misses", specs[i].Name, res.Totals.L2.Accesses(), first.Misses)
		}
	}
}
