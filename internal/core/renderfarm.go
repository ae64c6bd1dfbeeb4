// Frame-parallel render farm. The sweep engine in sweep.go made replay
// parallel, which left the serial render pass as the wall-clock floor of
// every comparison. Frames are the natural unit of independence: each
// frame's trace is a complete, independently decodable stream (its delta
// coder restarts at the frame boundary), the rasterizer clears all
// per-frame state in BeginFrame, and the camera is a pure function of the
// frame index. So a pool of workers — each owning a full render context
// (rasterizer, z-buffer, pipeline, trace writer) and sharing only the
// read-only scene and prepared texture set — renders frames out of order
// and publishes frame f exactly as the serial pass does: pooled chunks
// into frames[f] as they fill, then finish. Replay workers already
// consume that chunkSeq contract, so the downstream pool needs no
// changes and the assembled Comparison is byte-identical at every worker
// count.
//
// The two collectors with cross-frame state (the §4 working-set collector
// stamps blocks with the frame that last touched them; the reuse probe
// measures LRU stack distances over the global reference order) cannot be
// fed out of order. The coordinator feeds them by replaying the published
// shards in frame order — the trace round trip is lossless, so they see
// the exact call sequence the serial pass would have produced.
package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/stats"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
	"texcache/internal/trace"
	"texcache/internal/workload"
)

// renderWorkerCount resolves the RenderWorkers knob to an effective farm
// size: 0 means GOMAXPROCS, capped at the frame count (a worker per frame
// saturates the farm), floor 1 (the serial oracle).
func renderWorkerCount(renderWorkers, frames int) int {
	if renderWorkers == 0 {
		renderWorkers = runtime.GOMAXPROCS(0)
	}
	if renderWorkers > frames {
		renderWorkers = frames
	}
	if renderWorkers < 1 {
		renderWorkers = 1
	}
	return renderWorkers
}

// renderContext is one farm worker's private rendering state. Everything
// mutated while rendering a frame lives here; the scene and texture set
// stay shared and read-only (bounds and tile layouts are pre-warmed
// before the farm spawns).
type renderContext struct {
	rast     *raster.Rasterizer
	pipeline *scene.Pipeline
	sink     raster.TraceSink
	aspect   float64
	// track is the worker's textrace timeline ("render worker K"); frame
	// spans carry the logical "render" identity so the canonical export
	// is the same whether the farm or the serial pass rendered them.
	track *telemetry.Track
}

func newRenderContext(render Config) (*renderContext, error) {
	rast, err := raster.New(raster.Config{
		Width: render.Width, Height: render.Height,
		Mode:           render.Mode,
		ZBeforeTexture: render.ZBeforeTexture,
	})
	if err != nil {
		return nil, err
	}
	rc := &renderContext{
		rast:     rast,
		pipeline: scene.NewPipeline(rast),
		aspect:   float64(render.Width) / float64(render.Height),
	}
	rast.SetSink(&rc.sink)
	return rc, nil
}

// renderFrame renders and encodes frame f, publishing pooled chunks into
// frames[f] as they fill; pipeline stats and pixels are stored before the
// chunkSeq finishes, which is the happens-before edge replay workers
// synchronise on. On error the frame's partial chunks are abandoned and
// the caller aborts the sequence.
func (rt *renderedTrace) renderFrame(rc *renderContext, w *workload.Workload, render Config, f int) error {
	fr := rc.track.Begin("render", "frame", int64(f))
	defer fr.End()
	cw := &chunkWriter{rt: rt, seq: rt.frames[f], f: f}
	tw := trace.NewWriter(cw)
	rc.sink.W = tw
	tw.BeginFrame()
	pst := rc.pipeline.RenderFrame(w.Scene, w.Camera(rc.aspect, f, render.Frames))
	tw.EndFrame(rc.rast.Pixels())
	if err := tw.Close(); err != nil {
		cw.abandon()
		return fmt.Errorf("core: sweep: encoding frame %d: %w", f, err)
	}
	rt.pipeline[f] = pst
	rt.pixels[f] = rc.rast.Pixels()
	cw.finish()
	rc.track.Instant("", "shard-publish", int64(f), "")
	rt.rendered.Add(1)
	rt.rendered.Gauge(int64(f))
	rt.traceBytes.Gauge(int64(f))
	return nil
}

// renderFrames is one farm worker's loop: claim the next unrendered frame
// from the shared counter, render it, repeat. Every claimed frame is
// resolved exactly once — after this worker's first error, later claims
// are aborted so blocked replay workers drain instead of waiting forever
// (frames claimed by other workers keep rendering; replay stops at the
// first aborted frame in frame order).
func (rt *renderedTrace) renderFrames(rc *renderContext, w *workload.Workload, render Config, next *atomic.Int64) error {
	var firstErr error
	frames := int64(render.Frames)
	for {
		f := next.Add(1) - 1
		if f >= frames {
			return firstErr
		}
		if firstErr != nil {
			rc.track.Instant("", "chunk-abort", f, "")
			rt.frames[f].abort()
			continue
		}
		if err := rt.renderFrame(rc, w, render, int(f)); err != nil {
			firstErr = err
			rc.track.Instant("", "chunk-abort", f, "")
			rt.frames[f].abort()
		}
	}
}

// statsHandler replays published shards in frame order into the serial
// collectors. The trace round trip is lossless, so the collector and the
// reuse probe observe the exact per-texel call sequence of the serial
// render pass, preserving their cross-frame state (new-block stamps,
// stack distances) bit for bit.
type statsHandler struct {
	rt      *renderedTrace
	collect *stats.Collector
	reuse   *reuseProbe
	frame   int
}

func (h *statsHandler) BeginFrame() {
	if h.collect != nil {
		h.collect.BeginFrame()
	}
}

// Texel forwards one trusted replayed reference to the collectors.
//
// texlint:hotpath
func (h *statsHandler) Texel(tid uint32, u, v, m int) {
	if h.collect != nil {
		h.collect.Texel(texture.ID(tid), u, v, m)
	}
	if h.reuse != nil {
		h.reuse.Texel(texture.ID(tid), u, v, m)
	}
}

func (h *statsHandler) EndFrame(pixels int64) {
	if h.collect != nil {
		h.collect.AddPixels(pixels)
		h.rt.stats[h.frame] = h.collect.EndFrame()
	}
	h.frame++
}

// replayStats drives the collectors through every frame's chunks in
// order on the coordinator goroutine, overlapping the farm workers, as
// chunk consumer ci. An aborted frame means a worker failed; that worker
// reports the error, so this just stops.
func (rt *renderedTrace) replayStats(collect *stats.Collector, reuse *reuseProbe, ci int) error {
	if collect == nil && reuse == nil {
		return nil
	}
	h := &statsHandler{rt: rt, collect: collect, reuse: reuse}
	return rt.consume(ci, h)
}

// renderFarm is the frame-parallel counterpart of renderedTrace.render:
// workers render frames out of order into per-frame chunk sequences
// while the coordinator replays published chunks in frame order for the
// serial collectors (as chunk consumer statsCi; -1 when no collectors
// run). The assembled output is byte-identical to the serial pass at
// every worker count — shard bytes are a function of the frame alone,
// and the frame-ordered stats replay reproduces the serial collector
// sequence.
func (rt *renderedTrace) renderFarm(w *workload.Workload, render Config, collect *stats.Collector, reuse *reuseProbe, workers, statsCi int) error {
	// Mesh bounds are memoized lazily on first use; warm them here so the
	// workers' culling passes only read the shared scene.
	w.Scene.PrepareBounds()

	ctxs := make([]*renderContext, workers)
	for k := range ctxs {
		rc, err := newRenderContext(render)
		if err != nil {
			rt.abort(0)
			return err
		}
		rc.track = render.Trace.Track("render worker " + strconv.Itoa(k))
		ctxs[k] = rc
	}
	if collect != nil {
		rt.stats = make([]stats.Frame, render.Frames)
	}

	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := range ctxs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = rt.renderFrames(ctxs[k], w, render, &next)
		}(k)
	}

	statsErr := rt.replayStats(collect, reuse, statsCi)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return statsErr
}
