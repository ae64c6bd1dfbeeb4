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

// FrameResult records one simulated frame.
type FrameResult struct {
	// Pipeline reports geometry activity.
	Pipeline scene.FrameStats
	// Pixels is the textured pixels rasterized this frame.
	Pixels int64
	// Counters is the cache activity of this frame alone.
	Counters cache.Counters
	// Stats carries working-set statistics when enabled.
	Stats *stats.Frame
}

// Results aggregates a run.
type Results struct {
	Workload string
	Config   Config
	Frames   []FrameResult
	// Totals is the cache activity over the whole animation.
	Totals cache.Counters
	// Summary aggregates working-set statistics when enabled.
	Summary *stats.Summary
	// Reuse is the reference stream's stack-distance histogram when
	// Config.CollectReuse was set.
	Reuse *telemetry.ReuseHistogram
	// ModelFrames is the frame count covered by an analytically modeled
	// result (the -fast sweep): such Results carry whole-run Totals but
	// no per-frame breakdown, so Frames stays empty and ModelFrames
	// records the denominator for per-frame averages.
	ModelFrames int
}

// AvgHostMBPerFrame returns the mean host (AGP/system memory) download
// bandwidth in MB per frame, the quantity of Table 3.
func (r *Results) AvgHostMBPerFrame() float64 {
	frames := len(r.Frames)
	if frames == 0 {
		frames = r.ModelFrames
	}
	if frames == 0 {
		return 0
	}
	return float64(r.Totals.HostBytes) / float64(frames) / (1 << 20)
}

// addrSink translates texel references to cache addresses and drives the
// hierarchy; it is the rasterizer's Sink on the hot path.
type addrSink struct {
	canon   []*texture.Tiling // canonical 16x16/4x4 tilings per texture
	l2til   []*texture.Tiling // tilings under the L2 layout, or nil
	l2start []uint32
	h       *cache.Hierarchy
	collect *stats.Collector // optional
	reuse   *reuseProbe      // optional; concrete pointer keeps dispatch static
}

// Texel is invoked once per texel reference — hundreds of millions of
// times per run — and must stay free of allocation and formatting.
//
// texlint:hotpath
func (s *addrSink) Texel(tid texture.ID, u, v, m int) {
	a := s.canon[tid].Addr(u, v, m)
	ref := cache.Ref{L1: cache.L1Ref{
		Tag: cache.PackTag(uint32(tid), a.L2, a.L1),
		Set: cache.SetHash(int32(u>>2), int32(v>>2), uint8(m), uint32(tid)),
	}}
	if s.l2til != nil {
		b := s.l2til[tid].Addr(u, v, m)
		ref.PTIndex = s.l2start[tid] + b.L2
		ref.Sub = uint8(b.L1)
	}
	s.h.Access(ref)
	if s.collect != nil {
		s.collect.Texel(tid, u, v, m)
	}
	if s.reuse != nil {
		s.reuse.Texel(tid, u, v, m)
	}
}

// Simulator runs a workload through the cache hierarchy.
type Simulator struct {
	w        *workload.Workload
	cfg      Config
	rast     *raster.Rasterizer
	pipeline *scene.Pipeline
	sink     *addrSink
	hier     *cache.Hierarchy
	collect  *stats.Collector
}

// NewSimulator prepares a simulation of w under cfg.
func NewSimulator(w *workload.Workload, cfg Config) (*Simulator, error) {
	if cfg.Frames <= 0 {
		cfg.Frames = w.Frames
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	set := w.Scene.Textures

	rast, err := raster.New(raster.Config{
		Width: cfg.Width, Height: cfg.Height,
		Mode:           cfg.Mode,
		ZBeforeTexture: cfg.ZBeforeTexture,
		Framebuffer:    cfg.Framebuffer,
	})
	if err != nil {
		return nil, err
	}

	hier, sink, err := buildHierarchy(set, cfg)
	if err != nil {
		return nil, err
	}
	var collect *stats.Collector
	if len(cfg.StatLayouts) > 0 {
		collect, err = stats.NewCollector(set, cfg.StatLayouts...)
		if err != nil {
			return nil, err
		}
		sink.collect = collect
	}
	if cfg.CollectReuse {
		sink.reuse = newReuseProbe(set)
	}
	rast.SetSink(sink)

	return &Simulator{
		w:        w,
		cfg:      cfg,
		rast:     rast,
		pipeline: scene.NewPipeline(rast),
		sink:     sink,
		hier:     hier,
		collect:  collect,
	}, nil
}

// buildHierarchy constructs the cache hierarchy and address sink for the
// texture set under cfg.
func buildHierarchy(set *texture.Set, cfg Config) (*cache.Hierarchy, *addrSink, error) {
	if err := validateCache("", cfg.L2, cfg.TLBEntries); err != nil {
		return nil, nil, err
	}
	set.MustPrepare(texture.CanonicalL1())

	l1, err := l1Geom(cfg.L1Bytes, cfg.L1Ways).build()
	if err != nil {
		return nil, nil, err
	}
	hier := &cache.Hierarchy{L1: l1}

	sink := &addrSink{
		canon: set.Tilings(texture.CanonicalL1()),
		h:     hier,
	}
	if cfg.L2 != nil {
		l2cfg := effectiveL2(*cfg.L2)
		set.MustPrepare(l2cfg.Layout)
		l2, err := cache.NewL2(l2cfg, set.PageTableEntries(l2cfg.Layout))
		if err != nil {
			return nil, nil, err
		}
		hier.L2 = l2
		if cfg.TLBEntries > 0 {
			hier.TLB = cache.NewTLB(cfg.TLBEntries)
		}
		tilings := set.Tilings(l2cfg.Layout)
		starts := make([]uint32, set.Len())
		for i := range starts {
			starts[i] = set.Start(l2cfg.Layout, texture.ID(i))
		}
		sink.l2til = tilings
		sink.l2start = starts
	}
	return hier, sink, nil
}

// Run simulates all frames and returns the results.
func (s *Simulator) Run() (*Results, error) {
	res := &Results{
		Workload: s.w.Name,
		Config:   s.cfg,
		Frames:   make([]FrameResult, 0, s.cfg.Frames),
	}
	aspect := float64(s.cfg.Width) / float64(s.cfg.Height)
	prev := s.hier.Counters()
	// One "frame" span per rendered frame on the "render" track, as the
	// comparison engines record; a nil Trace makes these no-ops.
	tk := s.cfg.Trace.Track("render")
	for f := 0; f < s.cfg.Frames; f++ {
		cam := s.w.Camera(aspect, f, s.cfg.Frames)
		if s.collect != nil {
			s.collect.BeginFrame()
		}
		fspan := tk.Begin("render", "frame", int64(f))
		pst := s.pipeline.RenderFrame(s.w.Scene, cam)
		fspan.End()
		fr := FrameResult{
			Pipeline: pst,
			Pixels:   s.rast.Pixels(),
		}
		if s.collect != nil {
			s.collect.AddPixels(s.rast.Pixels())
			sf := s.collect.EndFrame()
			fr.Stats = &sf
		}
		cur := s.hier.Counters()
		fr.Counters = cur.Sub(prev)
		prev = cur
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.Frame(metricsFrame(res.Workload, "", f, &fr))
		}
		res.Frames = append(res.Frames, fr)
	}
	res.Totals = prev
	if s.collect != nil {
		sum := stats.Summarize(s.collect.Frames(), int64(s.cfg.Width)*int64(s.cfg.Height))
		res.Summary = &sum
	}
	res.Reuse = s.sink.reuse.histogram()
	return res, nil
}

// Framebuffer returns the last rendered frame's colour buffer, or nil.
func (s *Simulator) Framebuffer() []texture.RGBA { return s.rast.Color() }

// Run is the one-call entry point: simulate workload w under cfg.
func Run(w *workload.Workload, cfg Config) (*Results, error) {
	sim, err := NewSimulator(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return sim.Run()
}
