// The analytic -fast sweep engine. The paper's capacity sweep replays
// one rendered reference stream through every cache configuration; the
// reuse model (internal/model/reusemodel) collapses that to a single
// instrumented render: the sector-aware reuse probe measures the
// stream's locality profile once, and every model-reachable spec's
// counters are predicted from it by arithmetic. Only specs outside the
// model's reach — direct-mapped L1s, random replacement, disabled
// sector mapping, off-granularity tile sizes — fall back to exact
// replay, through the unchanged serial or parallel engines with the
// probe riding their render pass. TLB statistics are never modeled:
// each modeled TLB spec gets a real cache.TLB behind a real L1 filter
// inside the probe, so its stats are exact by construction.
package core

import (
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/model/reusemodel"
	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/texture"
	"texcache/internal/workload"
)

// runComparisonFast is the engine behind RunComparison when
// render.FastSweep is set.
func runComparisonFast(w *workload.Workload, render Config, specs []CacheSpec) (*Comparison, error) {
	if len(render.StatLayouts) > 0 {
		// The working-set collector attaches per-frame statistics to the
		// first spec's FrameResults, which a modeled result does not have.
		return nil, fmt.Errorf("core: fast sweep does not support working-set statistics")
	}
	set := w.Scene.Textures
	set.MustPrepare(texture.CanonicalL1())
	blockEdge := reuseLayout().L2Size

	// Partition the specs: model-reachable ones are predicted from the
	// probe's profile, the rest replay exactly. Modeled TLB specs get an
	// exact TLB in the probe, behind an L1 filter shared per L1 geometry;
	// the probe's page table is valid for them because Check already
	// pinned their tile edge to the probe's granularity.
	var replaySpecs []CacheSpec
	var replayIdx []int
	probe := newReuseProbe(set)
	mt := render.Trace.Track("model")
	type l1geom struct{ bytes, ways int }
	filters := map[l1geom]*probeFilter{}
	for i, spec := range specs {
		if err := reusemodel.Check(modelSpec(spec), blockEdge); err != nil {
			// A model refusal is a protocol edge: this spec leaves the
			// analytic path and falls back to exact replay.
			mt.Instant("model", "exact-fallback", int64(i), spec.Name)
			replaySpecs = append(replaySpecs, spec)
			replayIdx = append(replayIdx, i)
			continue
		}
		if spec.TLBEntries <= 0 {
			continue
		}
		g := l1geom{spec.L1Bytes, spec.L1Ways}
		f := filters[g]
		if f == nil {
			ways := spec.L1Ways
			if ways == 0 {
				ways = cache.L1Ways
			}
			l1, err := cache.NewL1Assoc(spec.L1Bytes, ways)
			if err != nil {
				return nil, fmt.Errorf("core: spec %q: %w", spec.Name, err)
			}
			f = &probeFilter{l1: l1, tlbs: make([]probeTLB, 0, len(specs))}
			filters[g] = f
			probe.filters = append(probe.filters, f)
		}
		f.tlbs = append(f.tlbs, probeTLB{specIdx: i, tlb: cache.NewTLB(spec.TLBEntries)})
	}

	// One pass over the stream: either the exact engines replay the
	// unreachable specs with the probe tapping their render, or — when
	// the model covers everything — a bare render drives the probe alone,
	// with no trace encoding or replay machinery at all.
	var framePixels []int64
	results := make([]*Results, len(specs))
	if len(replaySpecs) > 0 {
		sub := render
		sub.FastSweep = false
		var cmp *Comparison
		var err error
		if par := sweepWorkers(sub.Parallelism, len(replaySpecs)); par > 1 {
			cmp, err = runComparisonParallel(w, sub, replaySpecs, par, probe)
		} else {
			cmp, err = runComparisonSerial(w, sub, replaySpecs, probe)
		}
		if err != nil {
			return nil, err
		}
		framePixels = cmp.FramePixels
		for j, i := range replayIdx {
			results[i] = cmp.Results[j]
		}
	} else {
		pt := render.Trace.Track("fast-probe")
		rast, err := raster.New(raster.Config{
			Width: render.Width, Height: render.Height,
			Mode:           render.Mode,
			ZBeforeTexture: render.ZBeforeTexture,
		})
		if err != nil {
			return nil, err
		}
		rast.SetSink(probe)
		pipeline := scene.NewPipeline(rast)
		aspect := float64(render.Width) / float64(render.Height)
		framePixels = make([]int64, 0, render.Frames)
		for f := 0; f < render.Frames; f++ {
			// Logical "probe": the bare instrumented render only exists
			// on the all-modeled path, a deterministic property of the
			// spec list, so it is canonical-visible.
			fr := pt.Begin("probe", "frame", int64(f))
			pipeline.RenderFrame(w.Scene, w.Camera(aspect, f, render.Frames))
			framePixels = append(framePixels, rast.Pixels())
			fr.End()
		}
	}

	cmp := &Comparison{
		Workload:    w.Name,
		Render:      render,
		Specs:       make([]string, len(specs)),
		Results:     results,
		FramePixels: framePixels,
	}
	cmp.Reuse = probe.histogram()
	cmp.ReuseProfile = probe.profile()
	attachModel(cmp, specs)

	// Snapshot the probe's exact TLB filters; their stats overwrite the
	// modeled (absent) TLB numbers below.
	tp := mt.Begin("model", "tlb-patch", int64(len(specs)))
	tlbStats := make(map[int]cache.TLBStats)
	for _, f := range probe.filters {
		for _, t := range f.tlbs {
			tlbStats[t.specIdx] = t.tlb.Stats()
		}
	}
	tp.End()
	for i, spec := range specs {
		cmp.Specs[i] = spec.Name
		if cmp.Results[i] != nil {
			continue // replayed exactly
		}
		ev := mt.Begin("model", "eval", int64(i))
		m := &cmp.Model[i]
		if !m.Modeled {
			ev.End()
			// Check admitted the spec during partitioning, so Predict
			// cannot have refused it.
			return nil, fmt.Errorf("core: fast sweep: spec %q: %s", spec.Name, m.Unreachable)
		}
		totals := m.Pred.Counters()
		if st, ok := tlbStats[i]; ok {
			totals.TLB = st
		}
		cmp.Results[i] = &Results{
			Workload:    w.Name,
			Config:      specConfig(render, spec),
			Totals:      totals,
			ModelFrames: render.Frames,
		}
		ev.End()
	}
	return cmp, nil
}
