package core

import (
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/stats"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// CacheSpec names one cache configuration in a comparison run.
type CacheSpec struct {
	Name    string
	L1Bytes int
	// L1Ways is the L1 associativity; 0 means the paper's 2-way.
	L1Ways int
	// L2 is nil for the pull architecture.
	L2         *cache.L2Config
	TLBEntries int
}

// Comparison holds the results of simulating several cache configurations
// against one rendered reference stream.
type Comparison struct {
	Workload string
	Render   Config
	// Specs holds the spec names, parallel to Results; metric records
	// carry these as their spec label.
	Specs []string
	// Results is parallel to the specs passed to RunComparison; the
	// Config field of each Results reflects its spec.
	Results []*Results
	// Pixels per frame (shared across specs — same stream).
	FramePixels []int64
	// Reuse is the rendered stream's stack-distance histogram when
	// render.CollectReuse was set; the stream is shared across specs, so
	// the comparison carries one histogram, not one per spec.
	Reuse *telemetry.ReuseHistogram
	// ReuseProfile is the full sector-aware locality profile behind
	// Reuse (same probe, same stream), the input of the analytic model.
	ReuseProfile *telemetry.SectorProfile
	// Model is the analytic model's per-spec report, parallel to Specs,
	// present whenever a reuse profile was collected: the prediction for
	// every model-reachable spec, the refusal reason for the rest, and —
	// when that spec also has exact (replayed) results — the absolute
	// model error on the paper's headline rates.
	Model []SpecModel
}

// layoutXlate caches per-texture address translation for one L2 layout.
type layoutXlate struct {
	layout  texture.TileLayout
	tilings []*texture.Tiling
	starts  []uint32
	// per-texel scratch, refreshed by multiSink.Texel.
	pt  uint32
	sub uint8
}

// specState pairs a hierarchy with its layout translator index.
type specState struct {
	hier      *cache.Hierarchy
	layoutIdx int // -1 when no L2
}

// multiSink fans one texel reference stream out to several hierarchies,
// translating each distinct L2 layout only once per texel.
type multiSink struct {
	canon   []*texture.Tiling
	layouts []*layoutXlate
	specs   []specState
	collect *stats.Collector
	reuse   *reuseProbe
}

func (s *multiSink) Texel(tid texture.ID, u, v, m int) {
	a := s.canon[tid].Addr(u, v, m)
	l1 := cache.L1Ref{
		Tag: cache.PackTag(uint32(tid), a.L2, a.L1),
		Set: cache.SetHash(int32(u>>2), int32(v>>2), uint8(m), uint32(tid)),
	}
	for _, lx := range s.layouts {
		b := lx.tilings[tid].Addr(u, v, m)
		lx.pt = lx.starts[tid] + b.L2
		lx.sub = uint8(b.L1)
	}
	for i := range s.specs {
		sp := &s.specs[i]
		ref := cache.Ref{L1: l1}
		if sp.layoutIdx >= 0 {
			lx := s.layouts[sp.layoutIdx]
			ref.PTIndex = lx.pt
			ref.Sub = lx.sub
		}
		sp.hier.Access(ref)
	}
	if s.collect != nil {
		s.collect.Texel(tid, u, v, m)
	}
	if s.reuse != nil {
		s.reuse.Texel(tid, u, v, m)
	}
}

// specConfig merges one CacheSpec into the render configuration, yielding
// the Config recorded in that spec's Results.
func specConfig(render Config, spec CacheSpec) Config {
	cfg := render
	cfg.L1Bytes = spec.L1Bytes
	cfg.L1Ways = spec.L1Ways
	cfg.L2 = spec.L2
	cfg.TLBEntries = spec.TLBEntries
	return cfg
}

// RunComparison renders the workload once under render (resolution, frame
// count, filter, z-order) and simulates every spec against the identical
// texel reference stream. render's own cache fields are ignored. When
// render.StatLayouts is non-empty, working-set statistics are gathered once
// and attached to the first spec's results.
//
// render.Parallelism selects the engine: 1 runs the serial reference
// fan-out (every texel pushed through all hierarchies in one goroutine),
// anything else renders once into a sharded in-memory trace and replays
// it through the specs on a bounded worker pool (see sweep.go). The two
// paths produce byte-identical Comparisons.
func RunComparison(w *workload.Workload, render Config, specs []CacheSpec) (*Comparison, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no cache specs")
	}
	if render.Frames <= 0 {
		render.Frames = w.Frames
	}
	if render.L1Bytes == 0 {
		render.L1Bytes = 2 * 1024 // irrelevant; satisfies validation
	}
	if err := render.Validate(); err != nil {
		return nil, err
	}
	// Every engine checks its specs before rendering; the fast engine
	// never builds the hierarchies of the specs it models.
	for _, spec := range specs {
		if err := validateCache(spec.Name, spec.L2, spec.TLBEntries); err != nil {
			return nil, err
		}
	}
	if render.FastSweep {
		return runComparisonFast(w, render, specs)
	}
	if par := sweepWorkers(render.Parallelism, len(specs)); par > 1 {
		return runComparisonParallel(w, render, specs, par, nil)
	}
	return runComparisonSerial(w, render, specs, nil)
}

// buildMultiSink builds the shared-translation fan-out sink both engines
// drive: one hierarchy per spec (readable through sink.specs, parallel
// to specs), with address translation shared across all specs that use
// the same L2 layout — each distinct layout is translated once per
// texel, however many specs consume it.
func buildMultiSink(set *texture.Set, specs []CacheSpec) (*multiSink, error) {
	sink := &multiSink{canon: set.Tilings(texture.CanonicalL1())}
	sink.specs = make([]specState, 0, len(specs))
	// Every spec contributes at most one layout, so len(specs) bounds the
	// deduplicated layout table.
	sink.layouts = make([]*layoutXlate, 0, len(specs))
	layoutIndex := map[texture.TileLayout]int{}

	for _, spec := range specs {
		if err := validateCache(spec.Name, spec.L2, spec.TLBEntries); err != nil {
			return nil, err
		}
	}
	for _, spec := range specs {
		ways := spec.L1Ways
		if ways == 0 {
			ways = cache.L1Ways
		}
		l1, err := cache.NewL1Assoc(spec.L1Bytes, ways)
		if err != nil {
			return nil, fmt.Errorf("core: spec %q: %w", spec.Name, err)
		}
		hier := &cache.Hierarchy{L1: l1}
		layoutIdx := -1
		if spec.L2 != nil {
			l2cfg := effectiveL2(*spec.L2)
			idx, ok := layoutIndex[l2cfg.Layout]
			if !ok {
				set.MustPrepare(l2cfg.Layout)
				starts := make([]uint32, set.Len())
				for i := range starts {
					starts[i] = set.Start(l2cfg.Layout, texture.ID(i))
				}
				idx = len(sink.layouts)
				sink.layouts = append(sink.layouts, &layoutXlate{
					layout:  l2cfg.Layout,
					tilings: set.Tilings(l2cfg.Layout),
					starts:  starts,
				})
				layoutIndex[l2cfg.Layout] = idx
			}
			layoutIdx = idx
			l2, err := cache.NewL2(l2cfg, set.PageTableEntries(l2cfg.Layout))
			if err != nil {
				return nil, fmt.Errorf("core: spec %q: %w", spec.Name, err)
			}
			hier.L2 = l2
			if spec.TLBEntries > 0 {
				hier.TLB = cache.NewTLB(spec.TLBEntries)
			}
		}
		sink.specs = append(sink.specs, specState{hier: hier, layoutIdx: layoutIdx})
	}
	return sink, nil
}

// runComparisonSerial is the legacy single-goroutine engine, kept as the
// reference implementation the parallel path is tested against. A
// non-nil probe (the -fast engine injects one carrying TLB filters)
// overrides the CollectReuse-built probe and taps the render stream.
func runComparisonSerial(w *workload.Workload, render Config, specs []CacheSpec, probe *reuseProbe) (*Comparison, error) {
	set := w.Scene.Textures
	set.MustPrepare(texture.CanonicalL1())

	sink, err := buildMultiSink(set, specs)
	if err != nil {
		return nil, err
	}

	cmp := &Comparison{
		Workload:    w.Name,
		Render:      render,
		Specs:       make([]string, 0, len(specs)),
		Results:     make([]*Results, 0, len(specs)),
		FramePixels: make([]int64, 0, render.Frames),
	}
	for _, spec := range specs {
		cmp.Specs = append(cmp.Specs, spec.Name)
		cmp.Results = append(cmp.Results, &Results{
			Workload: w.Name, Config: specConfig(render, spec),
		})
	}

	if len(render.StatLayouts) > 0 {
		collect, err := stats.NewCollector(set, render.StatLayouts...)
		if err != nil {
			return nil, err
		}
		sink.collect = collect
	}
	if probe == nil && render.CollectReuse {
		probe = newReuseProbe(set)
	}
	sink.reuse = probe

	rast, err := raster.New(raster.Config{
		Width: render.Width, Height: render.Height,
		Mode:           render.Mode,
		ZBeforeTexture: render.ZBeforeTexture,
	})
	if err != nil {
		return nil, err
	}
	rast.SetSink(sink)
	pipeline := scene.NewPipeline(rast)

	// The serial engine emits the same logical textrace events as the
	// parallel engines — "render" frame spans and per-spec "replayed/"
	// samples — so a canonical-regime export is identical whichever
	// engine ran. Its single physical track is the render pass.
	tk := render.Trace.Track("render")
	replayed := make([]*telemetry.Counter, len(specs))
	for i, spec := range specs {
		replayed[i] = render.Trace.Counter("replayed/" + spec.Name)
	}

	aspect := float64(render.Width) / float64(render.Height)
	prev := make([]cache.Counters, len(specs))
	for f := 0; f < render.Frames; f++ {
		fspan := tk.Begin("render", "frame", int64(f))
		if sink.collect != nil {
			sink.collect.BeginFrame()
		}
		pst := pipeline.RenderFrame(w.Scene, w.Camera(aspect, f, render.Frames))
		fspan.End()
		cmp.FramePixels = append(cmp.FramePixels, rast.Pixels())
		var sf *stats.Frame
		if sink.collect != nil {
			sink.collect.AddPixels(rast.Pixels())
			v := sink.collect.EndFrame()
			sf = &v
		}
		for i := range sink.specs {
			cur := sink.specs[i].hier.Counters()
			fr := FrameResult{
				Pipeline: pst,
				Pixels:   rast.Pixels(),
				Counters: cur.Sub(prev[i]),
			}
			if i == 0 {
				fr.Stats = sf
			}
			prev[i] = cur
			// Streamed spec-minor within the frame: this loop defines the
			// canonical metric order every other engine must reproduce.
			if render.Metrics != nil {
				render.Metrics.Frame(metricsFrame(w.Name, cmp.Specs[i], f, &fr))
			}
			replayed[i].Sample(int64(f), int64(f)+1)
			cmp.Results[i].Frames = append(cmp.Results[i].Frames, fr)
		}
	}
	for i := range sink.specs {
		cmp.Results[i].Totals = sink.specs[i].hier.Counters()
	}
	if sink.collect != nil {
		sum := stats.Summarize(sink.collect.Frames(),
			int64(render.Width)*int64(render.Height))
		cmp.Results[0].Summary = &sum
	}
	cmp.Reuse = sink.reuse.histogram()
	cmp.ReuseProfile = sink.reuse.profile()
	attachModel(cmp, specs)
	return cmp, nil
}
