// Render-once / replay-many parallel sweep engine. The paper's
// methodology is trace-driven: one rendered reference stream is replayed
// through many cache configurations (§3.3). The serial fan-out in
// compare.go interleaves rendering and all cache simulations in a single
// goroutine, so an N-spec sweep costs render + N×sim on one core. This
// engine instead renders the workload once into an in-memory chunked
// trace (the internal/trace varint encoding, one independently decodable
// stream per frame, stored in pooled fixed-size chunks — see chunk.go)
// and replays it through the specs concurrently: the specs are
// partitioned into one group per worker, each group decodes the stream
// once per frame through a trace.ShardDecoder and fans every texel out
// to its hierarchies. Workers consume chunks as the render pass
// publishes them, so replay overlaps rendering, and the last consumer
// to release a chunk recycles it — steady-state memory is the pool
// budget, not the trace length. Results are assembled in spec order and
// are byte-identical to the serial path: the trace encoding is
// lossless, every hierarchy sees the identical reference stream, and
// per-frame counter snapshots follow the same arithmetic.
package core

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/stats"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
	"texcache/internal/trace"
	"texcache/internal/workload"
)

// sweepWorkers resolves the Parallelism knob to an effective worker
// count: 0 means GOMAXPROCS, and a single-spec comparison always takes
// the serial path (the trace round trip buys nothing there).
func sweepWorkers(parallelism, nspecs int) int {
	if nspecs <= 1 {
		return 1
	}
	if parallelism == 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > nspecs {
		parallelism = nspecs
	}
	return parallelism
}

// renderedTrace is the texel reference stream sharded by frame, plus
// everything else the assembled Comparison needs from the render pass.
// Each frame is a complete stream (header plus one whole frame) held as
// a chunkSeq, so it replays independently and the per-frame delta coder
// restarts at every frame boundary. Consumers (the replay groups) are
// registered up front: every published chunk starts with one reference
// per consumer and returns to the pool when the last one releases it.
// pipeline, pixels and stats are touched only by the render pass and,
// after all workers are joined, the coordinator.
type renderedTrace struct {
	pool      *chunkPool
	frames    []*chunkSeq
	consumers int
	// pos[ci] is the frame consumer ci is currently draining; its
	// minimum is the consumption floor that unblocks that frame's
	// producer at the pool budget (math.MaxInt64 once detached).
	pos []atomic.Int64

	pipeline []scene.FrameStats
	pixels   []int64
	stats    []stats.Frame // per frame, when collecting

	// textrace wiring (all nil-safe no-ops when trc is nil): the
	// coordinator track carries protocol instants and the assemble span;
	// rendered counts finished frames, traceBytes the encoded stream
	// volume, qdepth the render-ahead distance of the slowest consumer.
	trc        *telemetry.Trace
	coord      *telemetry.Track
	rendered   *telemetry.Counter
	traceBytes *telemetry.Counter
	qdepth     *telemetry.Counter
}

func newRenderedTrace(frames, consumers int, trc *telemetry.Trace) *renderedTrace {
	rt := &renderedTrace{
		pool:      newChunkPool(),
		frames:    make([]*chunkSeq, frames),
		consumers: consumers,
		pos:       make([]atomic.Int64, consumers),
		pipeline:  make([]scene.FrameStats, frames),
		pixels:    make([]int64, frames),

		trc:        trc,
		coord:      trc.Track("coordinator"),
		rendered:   trc.Counter("frames-rendered"),
		traceBytes: trc.Counter("trace-bytes"),
		qdepth:     trc.Counter("replay-queue-depth"),
	}
	rt.pool.inflight = trc.Counter("chunk-bytes-inflight")
	for f := range rt.frames {
		rt.frames[f] = newChunkSeq()
	}
	return rt
}

// floor returns the lowest frame any consumer is still draining;
// math.MaxInt64 with no (or only detached) consumers.
func (rt *renderedTrace) floor() int64 {
	lo := int64(math.MaxInt64)
	for i := range rt.pos {
		if p := rt.pos[i].Load(); p < lo {
			lo = p
		}
	}
	return lo
}

// acquire hands the producer of frame f an empty chunk. At the pool
// budget it blocks until a consumer releases one — unless f is at (or
// past) the consumption floor: consumers are waiting on this very
// frame, so blocking would deadlock and the pool grows instead.
func (rt *renderedTrace) acquire(f int) *chunk {
	return rt.pool.acquire(func() bool { return rt.floor() >= int64(f) })
}

// advance records that consumer ci is now draining frame f and
// re-evaluates blocked producers, whose frame may have become the floor.
func (rt *renderedTrace) advance(ci, f int) {
	rt.pos[ci].Store(int64(f))
	if rt.qdepth != nil {
		// How far rendering runs ahead of this consumer — a wall-only
		// gauge (scheduling-dependent by nature).
		rt.qdepth.Set(rt.rendered.Value() - int64(f))
		rt.qdepth.Gauge(int64(f))
	}
	rt.pool.wake()
}

// detach removes consumer ci from the floor so producers stop waiting
// on it; deferred by every consumer so no exit path strands a blocked
// producer.
func (rt *renderedTrace) detach(ci int) {
	rt.pos[ci].Store(math.MaxInt64)
	rt.pool.wake()
}

// release drops one consumer reference; the last reference recycles the
// chunk.
func (rt *renderedTrace) release(c *chunk) {
	if c.refs.Add(-1) == 0 {
		rt.pool.put(c)
	}
}

// abort marks every frame from f on as dead so that blocked consumers
// wake up and drain instead of waiting forever.
func (rt *renderedTrace) abort(from int) {
	rt.coord.Instant("", "chunk-abort", int64(from), "")
	for f := from; f < len(rt.frames); f++ {
		rt.frames[f].abort()
	}
}

// wasAborted reports whether any abort hit the trace (abort always
// covers the trailing frame).
func (rt *renderedTrace) wasAborted() bool {
	n := len(rt.frames)
	return n > 0 && rt.frames[n-1].wasAborted()
}

// consume drives handler h through every frame's chunks in order as
// consumer ci, releasing each chunk as soon as it is decoded
// (ShardDecoder carries straddling operations internally, so a released
// chunk is never referenced again). Returns nil when the render
// aborted: the producer owns that error.
func (rt *renderedTrace) consume(ci int, h trace.Handler) error {
	defer rt.detach(ci)
	var dec trace.ShardDecoder
	for f, seq := range rt.frames {
		rt.advance(ci, f)
		dec.Reset()
		for i := 0; ; i++ {
			c, ok := seq.next(i)
			if !ok {
				break
			}
			err := dec.Feed(c.data, h)
			rt.release(c)
			if err != nil {
				return fmt.Errorf("core: sweep replay: %w", err)
			}
		}
		if seq.wasAborted() {
			return nil
		}
		if _, err := dec.Finish(h); err != nil {
			return fmt.Errorf("core: sweep replay: %w", err)
		}
	}
	return nil
}

// render renders every frame of the workload under render's resolution,
// frame count and filter, encoding the reference stream into pooled
// chunks — each published to the replay workers as soon as it fills —
// and feeding the optional working-set collector and reuse probe. Each
// frame is a "frame" span on the "render" track, followed by a
// "shard-publish" instant once its chunks are published.
func (rt *renderedTrace) render(w *workload.Workload, render Config, collect *stats.Collector, reuse *reuseProbe) error {
	tk := rt.trc.Track("render")
	rast, err := raster.New(raster.Config{
		Width: render.Width, Height: render.Height,
		Mode:           render.Mode,
		ZBeforeTexture: render.ZBeforeTexture,
	})
	if err != nil {
		rt.abort(0)
		return err
	}
	// With no collectors tapping the stream, references go straight to
	// the trace writer through the rasterizer's devirtualized TraceSink
	// fast path; only collector runs pay the interface-dispatch tee.
	var tw *trace.Writer
	ts := &raster.TraceSink{}
	if collect == nil && reuse == nil {
		rast.SetSink(ts)
	} else {
		rast.SetSink(raster.SinkFunc(func(tid texture.ID, u, v, m int) {
			tw.Texel(uint32(tid), u, v, m)
			if collect != nil {
				collect.Texel(tid, u, v, m)
			}
			if reuse != nil {
				reuse.Texel(tid, u, v, m)
			}
		}))
	}
	pipeline := scene.NewPipeline(rast)
	aspect := float64(render.Width) / float64(render.Height)
	if collect != nil {
		rt.stats = make([]stats.Frame, render.Frames)
	}

	for f := 0; f < render.Frames; f++ {
		fr := tk.Begin("render", "frame", int64(f))
		cw := &chunkWriter{rt: rt, seq: rt.frames[f], f: f}
		tw = trace.NewWriter(cw)
		ts.W = tw
		tw.BeginFrame()
		if collect != nil {
			collect.BeginFrame()
		}
		pst := pipeline.RenderFrame(w.Scene, w.Camera(aspect, f, render.Frames))
		tw.EndFrame(rast.Pixels())
		if err := tw.Close(); err != nil {
			fr.End()
			cw.abandon()
			rt.abort(f)
			return fmt.Errorf("core: sweep: encoding frame %d: %w", f, err)
		}
		rt.pipeline[f] = pst
		rt.pixels[f] = rast.Pixels()
		if collect != nil {
			collect.AddPixels(rast.Pixels())
			rt.stats[f] = collect.EndFrame()
		}
		cw.finish()
		tk.Instant("", "shard-publish", int64(f), "")
		rt.rendered.Add(1)
		rt.rendered.Gauge(int64(f))
		rt.traceBytes.Gauge(int64(f))
		fr.End()
	}
	return nil
}

// sweepSpecState is one spec's replay state within a group: its
// hierarchy (owned by the group's multiSink), its result slot, and the
// previous counter snapshot the per-frame deltas subtract from.
// replayed is the spec's textrace progress counter ("replayed/<name>"),
// sampled once per replayed frame with the deterministic frame count —
// the canonical-regime progress timeline every engine reproduces.
type sweepSpecState struct {
	hier     *cache.Hierarchy
	res      *Results
	prev     cache.Counters
	replayed *telemetry.Counter
}

// sweepGroup fans one decoded reference stream out to a worker's share
// of the specs through a shared-translation multiSink — each distinct
// L2 layout in the group is translated once per texel, exactly as the
// serial engine does — reproducing the FrameResults the serial fan-out
// produces for each spec. Unlike replayHandler (which guards
// ReplayTrace against hostile external streams), it performs no
// per-texel validation: sweep chunks are encoded in-process from
// rasterizer output, whose coordinates are valid by construction.
type sweepGroup struct {
	sink  *multiSink
	specs []*sweepSpecState
	// track is the group's physical textrace timeline ("replay group G");
	// frame counts replayed frames and open is the current frame span.
	track *telemetry.Track
	frame int
	open  telemetry.Region
}

func (g *sweepGroup) BeginFrame() {
	// Wall-only: the serial engine replays nothing, so replay frame
	// spans carry no logical identity. The distinct name keeps them out
	// of the render "frame" phase in the report.
	g.open = g.track.Begin("", "replay-frame", int64(g.frame))
}

// Texel forwards one trusted reference to the group's fan-out sink.
//
// texlint:hotpath
func (g *sweepGroup) Texel(tid uint32, u, v, m int) {
	g.sink.Texel(texture.ID(tid), u, v, m)
}

func (g *sweepGroup) EndFrame(pixels int64) {
	for _, s := range g.specs {
		cur := s.hier.Counters()
		s.res.Frames = append(s.res.Frames, FrameResult{
			Pixels:   pixels,
			Counters: cur.Sub(s.prev),
		})
		s.prev = cur
		// Deterministic by construction: a group replays frames in
		// order, so frame g.frame completing means g.frame+1 frames of
		// this spec are done, whatever the scheduling.
		s.replayed.Sample(int64(g.frame), int64(g.frame)+1)
	}
	g.open.End()
	g.frame++
}

// replayGroup drives one worker's spec group through the whole rendered
// trace: the chunk stream is decoded once per frame and every texel
// fans out to the group's hierarchies, so an N-spec sweep on P workers
// costs P decodes instead of N. Each worker owns its hierarchies and
// sinks; nothing here is shared with other workers except the released
// chunks' refcounts. The whole pass is one "replay" span on the group's
// track.
func replayGroup(rt *renderedTrace, ci int, g *sweepGroup) error {
	rg := g.track.Begin("", "replay", int64(ci))
	defer rg.End()
	if err := rt.consume(ci, g); err != nil {
		return err
	}
	if rt.wasAborted() {
		// Render aborted; the coordinator reports its error.
		return nil
	}
	for _, s := range g.specs {
		s.res.Totals = s.hier.Counters()
	}
	return nil
}

// specGroups partitions n specs into w contiguous, balanced index
// ranges, one per replay worker.
func specGroups(n, w int) [][2]int {
	if w > n {
		w = n
	}
	out := make([][2]int, 0, w)
	for i := 0; i < w; i++ {
		out = append(out, [2]int{i * n / w, (i + 1) * n / w})
	}
	return out
}

// runComparisonParallel is the render-once / replay-many engine behind
// RunComparison for Parallelism != 1. The hierarchies are built serially
// up front (so spec errors surface before the expensive render, and so
// every texture.Set layout is prepared before any worker goroutine reads
// the registry), then the specs are partitioned into par groups with one
// replay goroutine each, consuming trace chunks as the render pass
// publishes them; every group writes only its own specs' result and
// error slots. Assembly in spec order makes the output deterministic and
// byte-identical to runComparisonSerial.
func runComparisonParallel(w *workload.Workload, render Config, specs []CacheSpec, par int, probe *reuseProbe) (*Comparison, error) {
	set := w.Scene.Textures
	set.MustPrepare(texture.CanonicalL1())

	// Build every group's hierarchies and shared-translation sink before
	// spawning anything: buildMultiSink prepares tile layouts in the
	// texture registry, which memoizes into maps that must not be
	// written concurrently.
	cmp := &Comparison{
		Workload: w.Name,
		Render:   render,
		Specs:    make([]string, 0, len(specs)),
		Results:  make([]*Results, 0, len(specs)),
	}
	for _, spec := range specs {
		cmp.Specs = append(cmp.Specs, spec.Name)
		cmp.Results = append(cmp.Results, &Results{
			Workload: w.Name, Config: specConfig(render, spec),
			Frames: make([]FrameResult, 0, render.Frames),
		})
	}
	groups := specGroups(len(specs), par)
	sweeps := make([]*sweepGroup, 0, len(groups))
	for gi, gr := range groups {
		ms, err := buildMultiSink(set, specs[gr[0]:gr[1]])
		if err != nil {
			return nil, err
		}
		g := &sweepGroup{
			sink:  ms,
			specs: make([]*sweepSpecState, 0, gr[1]-gr[0]),
			track: render.Trace.Track("replay group " + strconv.Itoa(gi)),
		}
		for i := gr[0]; i < gr[1]; i++ {
			g.specs = append(g.specs, &sweepSpecState{
				hier:     ms.specs[i-gr[0]].hier,
				res:      cmp.Results[i],
				replayed: render.Trace.Counter("replayed/" + specs[i].Name),
			})
		}
		sweeps = append(sweeps, g)
	}

	var collect *stats.Collector
	if len(render.StatLayouts) > 0 {
		var err error
		collect, err = stats.NewCollector(set, render.StatLayouts...)
		if err != nil {
			return nil, err
		}
	}
	reuse := probe
	if reuse == nil && render.CollectReuse {
		reuse = newReuseProbe(set)
	}

	// One chunk consumer per replay group; the render pass feeds the
	// collectors inline.
	rt := newRenderedTrace(render.Frames, len(groups), render.Trace)

	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for gi := range groups {
		wg.Add(1)
		go func(gi int, g *sweepGroup) {
			defer wg.Done()
			errs[gi] = replayGroup(rt, gi, g)
		}(gi, sweeps[gi])
	}

	renderErr := rt.render(w, render, collect, reuse)
	wg.Wait()
	if renderErr != nil {
		return nil, renderErr
	}
	for gi, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: specs %q: %w",
				strings.Join(cmp.Specs[groups[gi][0]:groups[gi][1]], "+"), err)
		}
	}

	// Workers account pixels and counters from the stream; the geometry
	// pipeline statistics come from the render pass.
	asm := rt.coord.Begin("", "assemble", 0)
	defer asm.End()
	for _, res := range cmp.Results {
		for f := range res.Frames {
			res.Frames[f].Pipeline = rt.pipeline[f]
		}
	}
	cmp.FramePixels = append(cmp.FramePixels, rt.pixels...)
	if collect != nil {
		// As in the serial path, the working-set statistics ride on the
		// first spec's results.
		for f := range rt.stats {
			cmp.Results[0].Frames[f].Stats = &rt.stats[f]
		}
		sum := stats.Summarize(collect.Frames(),
			int64(render.Width)*int64(render.Height))
		cmp.Results[0].Summary = &sum
	}
	cmp.Reuse = reuse.histogram()
	cmp.ReuseProfile = reuse.profile()
	attachModel(cmp, specs)
	// The workers each filled their own Results slot — those are the
	// per-worker metric buffers. Replaying them frame-major, spec-minor
	// reproduces the serial engine's streamed order byte for byte.
	EmitComparisonMetrics(render.Metrics, cmp)
	return cmp, nil
}
