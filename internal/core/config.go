// Package core is the study's simulator: it drives a workload's scripted
// animation through the geometry pipeline and rasterizer, translates each
// texel reference to the hierarchical virtual texture address, and presents
// it to the configured cache hierarchy (L1 only for the pull architecture,
// L1+L2 for the proposed architecture), gathering per-frame transaction
// counts, bandwidths, and working-set statistics.
//
// It also records and replays binary reference traces, decoupling the
// (expensive) rendering from (cheap) cache simulation, which is how the
// paper sweeps cache parameters over fixed animations.
package core

import (
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
)

// Config parameterises one simulation run.
type Config struct {
	// Width and Height give the screen resolution; the paper uses
	// 1024x768.
	Width, Height int
	// Frames is the number of animation frames to simulate, spread
	// evenly over the workload's camera path. Zero means the workload's
	// paper-scale frame count.
	Frames int
	// Mode selects the texture filter (point for §4 statistics,
	// bilinear/trilinear for cache studies).
	Mode raster.SampleMode
	// L1Bytes is the L1 cache capacity; the paper studies 2 KB and
	// 16 KB primarily.
	L1Bytes int
	// L1Ways is the L1 associativity; 0 means the paper's 2-way.
	L1Ways int
	// L2 configures the L2 cache; nil simulates the pull architecture.
	L2 *cache.L2Config
	// TLBEntries sizes the page-table TLB (0 = no TLB statistics).
	TLBEntries int
	// ZBeforeTexture enables the §6 z-before-texture optimisation.
	ZBeforeTexture bool
	// StatLayouts, when non-empty, enables the §4 working-set collector
	// at the given tile granularities.
	StatLayouts []texture.TileLayout
	// Framebuffer renders colour output (snapshots); costs time.
	Framebuffer bool
	// Parallelism bounds the worker pool of comparison sweeps
	// (RunComparison): 0 means runtime.GOMAXPROCS(0), 1 selects the
	// serial reference fan-out, and higher values render the workload
	// once into a sharded trace and replay it through that many cache
	// hierarchies concurrently. Results are byte-identical at every
	// setting; the knob trades memory (the in-memory trace, roughly 2-3
	// bytes per texel reference) for wall-clock. Negative is invalid.
	Parallelism int
	// Metrics, when non-nil, receives one telemetry record per simulated
	// frame (and per cache spec in comparison runs) in a deterministic
	// frame-major, spec-minor order that is identical at every
	// Parallelism setting. Emission happens outside the per-texel hot
	// path; a nil Metrics costs nothing.
	Metrics telemetry.Emitter
	// Trace, when non-nil, is the textrace registry, the simulator's one
	// tracing system: worker-attributed span tracks (render, replay
	// group G, fast-probe, model, coordinator), counter tracks
	// (chunk-pool bytes in flight, frames rendered, per-spec replay
	// progress, replay queue depth) and instant events for protocol
	// edges (shard publish, chunk abort, model refusal), across Run and
	// every comparison engine. Export it with WriteChromeTrace
	// for Perfetto/chrome://tracing, aggregate it with Report, or serve
	// it live through telemetry.NewMonitor. Timings are observational
	// sidecar data and never feed back into simulation output. Under a
	// deterministic clock (FakeClock) the export is byte-identical at
	// every Parallelism setting; a nil Trace costs one predictable
	// branch per event site and allocates nothing.
	Trace *telemetry.Trace
	// CollectReuse enables the reuse-distance probe: an LRU stack
	// distance histogram over L2 block addresses of the rendered
	// reference stream, attached to Results.Reuse / Comparison.Reuse.
	// Comparison runs additionally attach the sector profile and the
	// analytic model's per-spec report (Comparison.Model).
	CollectReuse bool
	// FastSweep switches RunComparison to the analytic engine: the
	// workload is rendered once through the reuse probe and every spec
	// the reuse model can reach (see internal/model/reusemodel) gets its
	// counters predicted from the profile instead of replayed — TLB
	// statistics come from exact in-probe filters. Specs outside the
	// model's reach (direct-mapped L1s, random replacement, disabled
	// sector mapping, off-granularity tile sizes) are replayed exactly as
	// before. Modeled Results carry Totals but no per-frame breakdown.
	// Implies CollectReuse for the comparison; incompatible with
	// StatLayouts.
	FastSweep bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("core: invalid resolution %dx%d", c.Width, c.Height)
	}
	if c.L1Bytes <= 0 {
		return fmt.Errorf("core: L1 size %d", c.L1Bytes)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: negative parallelism %d", c.Parallelism)
	}
	if err := validateCache("", c.L2, c.TLBEntries); err != nil {
		return err
	}
	for _, l := range c.StatLayouts {
		if err := l.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ConfigError reports a cache configuration the simulator cannot build.
// Spec names the comparison spec it belongs to, or is empty for the
// cache of a single-configuration run. It is returned before any tile
// layout is prepared or any cache allocated.
type ConfigError struct {
	Spec string
	Err  error
}

func (e *ConfigError) Error() string {
	if e.Spec == "" {
		return "core: cache config: " + e.Err.Error()
	}
	return fmt.Sprintf("core: spec %q: %v", e.Spec, e.Err)
}

func (e *ConfigError) Unwrap() error { return e.Err }

// effectiveL2 is the L2 configuration a hierarchy is built from: the L2
// sub-block is always the 4x4 L1 tile, so that sector bits track exactly
// what the L1 cache downloads.
func effectiveL2(l2 cache.L2Config) cache.L2Config {
	l2.Layout.L1Size = 4
	return l2
}

// validateCache checks the cache levels below L1 as they will be built:
// the effective L2 configuration and the TLB size.
func validateCache(spec string, l2 *cache.L2Config, tlbEntries int) error {
	if tlbEntries < 0 {
		return &ConfigError{spec, fmt.Errorf("negative TLB entries %d", tlbEntries)}
	}
	if l2 != nil {
		if err := effectiveL2(*l2).Validate(); err != nil {
			return &ConfigError{spec, err}
		}
	}
	return nil
}

// DefaultConfig returns the paper's baseline configuration: 1024x768,
// trilinear, 2 KB L1, 2 MB L2 of 16x16 tiles with clock replacement, and a
// 16-entry TLB.
func DefaultConfig() Config {
	return Config{
		Width:   1024,
		Height:  768,
		Mode:    raster.Trilinear,
		L1Bytes: 2 * 1024,
		L2: &cache.L2Config{
			SizeBytes: 2 * 1024 * 1024,
			Layout:    texture.TileLayout{L2Size: 16, L1Size: 4},
			Policy:    cache.Clock,
		},
		TLBEntries: 16,
	}
}
