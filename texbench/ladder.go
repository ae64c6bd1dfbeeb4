package main

import (
	"bytes"
	"fmt"
	"runtime"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/model/reusemodel"
	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/telemetry"
	"texcache/internal/texture"
	"texcache/internal/trace"
	"texcache/internal/workload"
)

// Layer names: each is the package the ladder drives, and the suffix of
// the span track its batches are recorded on.
const (
	layerRaster    = "raster"
	layerEncode    = "trace.encode"
	layerDecode    = "trace.decode"
	layerTexture   = "texture"
	layerL1        = "cache.l1"
	layerTLB       = "cache.tlb"
	layerL2        = "cache.l2"
	layerTelemetry = "telemetry"
	layerModel     = "model"
)

// allLayers lists the layers in pipeline order.
var allLayers = [...]string{layerRaster, layerEncode, layerDecode, layerTexture,
	layerL1, layerTLB, layerL2, layerTelemetry, layerModel}

// engineLayers are the layers a workload's timed call runs through; their
// busy time is what core.closure compares with the run's CPU time. The
// exact sweep renders into a trace and replays it (the default engine on
// two or more CPUs); the fast sweep never touches a trace.
func engineLayers(k Kind) []string {
	if k == KindFast {
		return []string{layerRaster, layerTexture, layerL1, layerTLB, layerL2, layerTelemetry, layerModel}
	}
	return []string{layerRaster, layerEncode, layerDecode, layerTexture, layerL1, layerTLB, layerL2}
}

// texRef is one texel reference as the rasterizer emitted it.
type texRef struct {
	tid     uint32
	u, v, m int32
}

// refSink is the counting sink the raster layer renders into: it keeps
// the frame's references for the layers downstream.
type refSink struct{ refs []texRef }

func (s *refSink) Texel(tid texture.ID, u, v, m int) {
	s.refs = append(s.refs, texRef{uint32(tid), int32(u), int32(v), int32(m)})
}

// refHash folds one reference into a running checksum.
func refHash(sum uint64, tid uint32, u, v, m int) uint64 {
	return (sum^uint64(tid)<<40^uint64(uint32(u))<<20^uint64(uint32(v))^uint64(m)<<60)*0x100000001b3 + 1
}

// decodeCheck is the trace.Handler of the decode layer: it counts and
// checksums the decoded references.
type decodeCheck struct {
	n   int64
	sum uint64
}

func (h *decodeCheck) BeginFrame()    {}
func (h *decodeCheck) EndFrame(int64) {}
func (h *decodeCheck) Texel(tid uint32, u, v, m int) {
	h.n++
	h.sum = refHash(h.sum, tid, u, v, m)
}

// cacheUnit is one simulated cache stack of the ladder. An exact unit is
// one spec's L1, optional L2 and TLB, as its hierarchy builds them. A
// filter unit is the -fast engine's exact TLB path: one L1 per geometry
// feeding the TLBs of every modeled spec with that geometry, addressed
// by the canonical page table.
type cacheUnit struct {
	l1     *cache.L1Cache
	l2     *cache.L2Cache
	filter bool // the -fast engine's TLB filter, addressed canonically
	layout int  // index into the ladder's L2 layouts; -1 for none
	tlbs   []*cache.TLB
	specs  []int // specs whose counters this unit produces
	dl     int64 // host bytes per L2 partial hit or full miss
	misses []int32
	host   int64
	l2r    int64
	l2w    int64
}

// counters assembles an exact unit's counters as cache.Hierarchy
// reports them.
func (u *cacheUnit) counters() cache.Counters {
	c := cache.Counters{L1: u.l1.Stats(), HostBytes: u.host, L2ReadBytes: u.l2r, L2WriteBytes: u.l2w}
	if u.l2 != nil {
		c.L2 = u.l2.Stats()
	}
	if len(u.tlbs) > 0 {
		c.TLB = u.tlbs[0].Stats()
	}
	return c
}

// LadderResult is the traced ladder's output.
type LadderResult struct {
	RunID string
	// Counters is what the ladder computed for each spec; it must equal
	// the untraced run's Totals.
	Counters []cache.Counters
	// BusyS is each layer's self time; Ops its work count.
	BusyS map[string]float64
	// Counts of work done, by metric name.
	Frames, Texels, TraceBytes, AddrCalls int64
	L1Accesses, L1Misses                  int64
	L2Accesses, L2FullHits, L2Evictions   int64
	TLBLookups, TLBHits                   int64
	ProfileRefs                           int64
	// WallS is the ladder's wall time, set-up included.
	WallS float64
	Trace *telemetry.Trace
}

// modelSpec projects a sweep spec onto the reuse model's input, as the
// -fast engine does.
func modelSpec(s core.CacheSpec) reusemodel.Spec {
	ms := reusemodel.Spec{Name: s.Name, L1Bytes: s.L1Bytes, L1Ways: s.L1Ways}
	if s.L2 != nil {
		ms.L2Bytes = s.L2.SizeBytes
		ms.TileEdge = s.L2.Layout.L2Size
		ms.Policy = s.L2.Policy
		ms.NoSectorMapping = s.L2.NoSectorMapping
	}
	return ms
}

// ladder is the per-layer traced run over one workload's stream.
type ladder struct {
	d     Def
	w     *workload.Workload
	specs []core.CacheSpec
	kind  Kind
	tr    *telemetry.Trace
	track map[string]*telemetry.Track
	frame *telemetry.Track

	canon      []*texture.Tiling
	canonStart []uint32
	layouts    []texture.TileLayout
	tilings    [][]*texture.Tiling
	starts     [][]uint32

	units []*cacheUnit
	coll  *telemetry.SectorReuseCollector
	// lastKey is the L1 line of the probe's previous reference and
	// repeats the references it skipped as same-line repeats.
	lastKey uint64
	repeats int64

	// Per-frame buffers, reused across frames.
	sink   refSink
	enc    bytes.Buffer
	l1refs []cache.L1Ref
	cpt    []uint32
	csub   []uint16
	pt     [][]uint32
	sub    [][]uint8

	res *LadderResult
}

// RunLadder drives every layer of the workload's pipeline through its
// public entry point, one frame batch at a time. With spans set it
// records one span per (frame, layer) on a trace whose track names share
// runID; without, it records nothing and reports no self times, so the
// two runs' wall times give the cost of tracing.
func RunLadder(d Def, w *workload.Workload, runID string, spans bool) (*LadderResult, error) {
	clock := telemetry.NewWallClock()
	var tr *telemetry.Trace
	if spans {
		tr = telemetry.NewTrace(clock)
	}
	runtime.GC()
	start := clock.Now()
	l := &ladder{
		d: d, w: w, specs: d.Specs(), kind: d.Kind,
		tr:      tr,
		track:   map[string]*telemetry.Track{},
		res:     &LadderResult{RunID: runID, BusyS: map[string]float64{}},
		lastKey: ^uint64(0),
	}
	for _, name := range allLayers {
		l.track[name] = l.tr.Track(runID + " " + name)
	}
	l.frame = l.tr.Track(runID + " ladder")
	if err := l.build(); err != nil {
		return nil, err
	}
	l.frame.Instant("", "run", 0, runID)
	rast, err := raster.New(raster.Config{Width: d.Width, Height: d.Height, Mode: raster.Trilinear})
	if err != nil {
		return nil, err
	}
	rast.SetSink(&l.sink)
	pipeline := scene.NewPipeline(rast)
	aspect := float64(d.Width) / float64(d.Height)
	for f := 0; f < d.Frames; f++ {
		if err := l.runFrame(pipeline, rast, w.Camera(aspect, f, d.Frames), f); err != nil {
			return nil, err
		}
	}
	if err := l.finish(); err != nil {
		return nil, err
	}
	l.res.WallS = seconds(start, clock.Now())
	return l.res, nil
}

// build sets up translation tables and cache units.
func (l *ladder) build() error {
	if err := l.d.Prepare(l.w); err != nil {
		return err
	}
	set := l.w.Scene.Textures
	canonLayout := texture.CanonicalL1()
	l.canon = set.Tilings(canonLayout)
	l.canonStart = layoutStarts(set, canonLayout)

	// The exact engines translate every distinct L2 layout per
	// reference; the fast probe translates only the canonical one.
	layoutIdx := map[texture.TileLayout]int{}
	if l.kind != KindFast {
		for _, lay := range l.d.Layouts()[1:] {
			layoutIdx[lay] = len(l.layouts)
			l.layouts = append(l.layouts, lay)
			l.tilings = append(l.tilings, set.Tilings(lay))
			l.starts = append(l.starts, layoutStarts(set, lay))
		}
		l.pt = make([][]uint32, len(l.layouts))
		l.sub = make([][]uint8, len(l.layouts))
	}

	l.res.Counters = make([]cache.Counters, len(l.specs))
	type geom struct{ bytes, ways int }
	filters := map[geom]*cacheUnit{}
	for i, s := range l.specs {
		ways := s.L1Ways
		if ways == 0 {
			ways = cache.L1Ways
		}
		if l.kind == KindFast {
			if err := reusemodel.Check(modelSpec(s), canonLayout.L2Size); err != nil {
				return fmt.Errorf("texbench: the ladder covers an all-modeled fast sweep: %w", err)
			}
			if s.TLBEntries <= 0 {
				continue
			}
			g := geom{s.L1Bytes, ways}
			u := filters[g]
			if u == nil {
				l1, err := cache.NewL1Assoc(s.L1Bytes, ways)
				if err != nil {
					return err
				}
				u = &cacheUnit{l1: l1, filter: true, layout: -1}
				filters[g] = u
				l.units = append(l.units, u)
			}
			u.tlbs = append(u.tlbs, cache.NewTLB(s.TLBEntries))
			u.specs = append(u.specs, i)
			continue
		}
		l1, err := cache.NewL1Assoc(s.L1Bytes, ways)
		if err != nil {
			return err
		}
		u := &cacheUnit{l1: l1, layout: -1, specs: []int{i}, dl: cache.L1LineBytes}
		if lay, ok := l2Layout(s); ok {
			u.layout = layoutIdx[lay]
			l2cfg := *s.L2
			l2cfg.Layout = lay
			if u.l2, err = cache.NewL2(l2cfg, set.PageTableEntries(lay)); err != nil {
				return err
			}
			u.dl = missBytes(l2cfg)
			if s.TLBEntries > 0 {
				u.tlbs = []*cache.TLB{cache.NewTLB(s.TLBEntries)}
			}
		}
		l.units = append(l.units, u)
	}
	if l.kind == KindFast {
		l.coll = telemetry.NewSectorReuseCollector(
			int(set.PageTableEntries(canonLayout)), canonLayout.SubPerBlock(), canonLayout.L2Size)
	}
	return nil
}

func layoutStarts(set *texture.Set, lay texture.TileLayout) []uint32 {
	starts := make([]uint32, set.Len())
	for i := range starts {
		starts[i] = set.Start(lay, texture.ID(i))
	}
	return starts
}

// span opens a span for one frame batch of a layer.
func (l *ladder) span(layer string, f int) telemetry.Region {
	return l.track[layer].Begin("", layer, int64(f))
}

// runFrame renders one frame and pushes its references through every
// layer the workload uses, one batch per layer.
func (l *ladder) runFrame(p *scene.Pipeline, rast *raster.Rasterizer, cam scene.Camera, f int) error {
	fr := l.frame.Begin("", "frame", int64(f))
	defer fr.End()
	r := l.res

	sp := l.span(layerRaster, f)
	l.sink.refs = l.sink.refs[:0]
	p.RenderFrame(l.w.Scene, cam)
	sp.End()
	refs := l.sink.refs
	n := len(refs)
	r.Frames++
	r.Texels += int64(n)

	if l.kind != KindFast {
		if err := l.traceFrame(refs, rast.Pixels(), f); err != nil {
			return err
		}
	}

	sp = l.span(layerTexture, f)
	if l.kind == KindFast {
		n = l.translateProbe(refs)
	} else {
		l.translate(refs)
	}
	sp.End()

	l.simulate(n, f)

	if l.coll != nil {
		sp = l.span(layerTelemetry, f)
		for i := 0; i < n; i++ {
			l.coll.Access(l.cpt[i], l.csub[i])
		}
		sp.End()
		r.ProfileRefs += int64(len(refs))
	}
	return nil
}

// traceFrame encodes the frame as a self-contained stream and decodes it
// back, checking the decoded references against the rendered ones.
func (l *ladder) traceFrame(refs []texRef, pixels int64, f int) error {
	var want uint64
	for _, t := range refs {
		want = refHash(want, t.tid, int(t.u), int(t.v), int(t.m))
	}
	sp := l.span(layerEncode, f)
	l.enc.Reset()
	tw := trace.NewWriter(&l.enc)
	tw.BeginFrame()
	for _, t := range refs {
		tw.Texel(t.tid, int(t.u), int(t.v), int(t.m))
	}
	tw.EndFrame(pixels)
	err := tw.Close()
	sp.End()
	if err != nil {
		return fmt.Errorf("texbench: ladder encode frame %d: %w", f, err)
	}
	l.res.TraceBytes += int64(l.enc.Len())

	h := &decodeCheck{}
	sp = l.span(layerDecode, f)
	_, err = trace.ReplayBytes(l.enc.Bytes(), h)
	sp.End()
	if err != nil {
		return fmt.Errorf("texbench: ladder decode frame %d: %w", f, err)
	}
	if h.n != int64(len(refs)) || h.sum != want {
		return fmt.Errorf("texbench: ladder decode frame %d: %d refs (checksum %x), rendered %d (%x)",
			f, h.n, h.sum, len(refs), want)
	}
	return nil
}

// l1Ref is the canonical L1 reference of t, given its canonical address.
func l1Ref(t texRef, a texture.Virtual) cache.L1Ref {
	return cache.L1Ref{
		Tag: cache.PackTag(t.tid, a.L2, a.L1),
		Set: cache.SetHash(t.u>>2, t.v>>2, uint8(t.m), t.tid),
	}
}

// translate computes, per reference, the canonical L1 reference, then
// the page-table index and sub-block under every L2 layout in use, as
// the exact engines' fan-out does.
func (l *ladder) translate(refs []texRef) {
	n := len(refs)
	l.l1refs = grow(l.l1refs, n)
	for i, t := range refs {
		l.l1refs[i] = l1Ref(t, l.canon[t.tid].Addr(int(t.u), int(t.v), int(t.m)))
	}
	calls := int64(n)
	for k := range l.layouts {
		l.pt[k] = grow(l.pt[k], n)
		l.sub[k] = grow(l.sub[k], n)
		til, st, pt, sub := l.tilings[k], l.starts[k], l.pt[k], l.sub[k]
		for i, t := range refs {
			b := til[t.tid].Addr(int(t.u), int(t.v), int(t.m))
			pt[i] = st[t.tid] + b.L2
			sub[i] = uint8(b.L1)
		}
		calls += int64(n)
	}
	l.res.AddrCalls += calls
}

// translateProbe translates the references the -fast probe translates:
// a reference to the same L1 line as the one before it is only counted,
// since it cannot change the profile (it is recorded as a repeat) or the
// L1 filter (it hits the line it just touched). The rest get their
// canonical L1 reference and page-table block, packed to the front; it
// returns how many.
func (l *ladder) translateProbe(refs []texRef) int {
	l.l1refs = grow(l.l1refs, len(refs))
	l.cpt = grow(l.cpt, len(refs))
	l.csub = grow(l.csub, len(refs))
	n := 0
	for _, t := range refs {
		key := uint64(t.tid)<<48 | uint64(t.m)<<40 | uint64(t.u>>2)<<20 | uint64(t.v>>2)
		if key == l.lastKey {
			l.repeats++
			continue
		}
		l.lastKey = key
		a := l.canon[t.tid].Addr(int(t.u), int(t.v), int(t.m))
		l.l1refs[n] = l1Ref(t, a)
		l.cpt[n] = l.canonStart[t.tid] + a.L2
		l.csub[n] = a.L1
		n++
	}
	l.res.AddrCalls += int64(n)
	return n
}

// grow returns s resliced to length n, reallocating only when its
// capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// simulate runs the frame's references through every cache unit: all
// L1s first, then the TLBs and the L2s on each L1's miss stream. L1
// state never depends on L2 or the TLB, so the batches are exact.
func (l *ladder) simulate(n, f int) {
	r := l.res
	sp := l.span(layerL1, f)
	for _, u := range l.units {
		u.misses = u.misses[:0]
		for i := 0; i < n; i++ {
			if !u.l1.Access(l.l1refs[i]) {
				u.misses = append(u.misses, int32(i))
			}
		}
	}
	sp.End()
	for _, u := range l.units {
		r.L1Accesses += int64(n)
		r.L1Misses += int64(len(u.misses))
		if u.l2 == nil && !u.filter {
			u.host += int64(len(u.misses)) * cache.L1LineBytes
		}
	}

	sp = l.span(layerTLB, f)
	for _, u := range l.units {
		pt := l.cpt
		if u.layout >= 0 {
			pt = l.pt[u.layout]
		}
		for _, t := range u.tlbs {
			for _, i := range u.misses {
				t.Lookup(pt[i])
			}
		}
		r.TLBLookups += int64(len(u.tlbs) * len(u.misses))
	}
	sp.End()

	sp = l.span(layerL2, f)
	for _, u := range l.units {
		if u.l2 == nil {
			continue
		}
		pt, sub := l.pt[u.layout], l.sub[u.layout]
		for _, i := range u.misses {
			if u.l2.Access(pt[i], sub[i]) == cache.L2FullHit {
				u.l2r += cache.L1LineBytes
			} else {
				u.host += u.dl
				u.l2w += u.dl
			}
		}
		r.L2Accesses += int64(len(u.misses))
	}
	sp.End()
}

// finish runs the model layer (fast workload), assembles per-spec
// counters and aggregates the trace into per-layer self times.
func (l *ladder) finish() error {
	r := l.res
	for _, u := range l.units {
		if u.l2 != nil {
			st := u.l2.Stats()
			r.L2FullHits += st.FullHits
			r.L2Evictions += st.Evictions
		}
		for _, t := range u.tlbs {
			r.TLBHits += t.Stats().Hits
		}
		if !u.filter {
			r.Counters[u.specs[0]] = u.counters()
		}
	}
	if l.coll != nil {
		sp := l.span(layerModel, 0)
		l.coll.RecordRepeats(l.repeats)
		prof := l.coll.Profile()
		preds := make([]reusemodel.Prediction, len(l.specs))
		for i, s := range l.specs {
			p, err := reusemodel.Predict(&prof, modelSpec(s))
			if err != nil {
				sp.End()
				return fmt.Errorf("texbench: ladder model %s: %w", s.Name, err)
			}
			preds[i] = p
		}
		sp.End()
		for i := range l.specs {
			r.Counters[i] = preds[i].Counters()
		}
		for _, u := range l.units {
			if u.filter {
				for j, t := range u.tlbs {
					r.Counters[u.specs[j]].TLB = t.Stats()
				}
			}
		}
	}

	if l.tr == nil {
		return nil
	}
	for _, tu := range l.tr.Report().Tracks {
		if name := tu.Name[len(r.RunID)+1:]; name != "ladder" {
			r.BusyS[name] = float64(tu.BusyNS) / 1e9
		}
	}
	r.Trace = l.tr
	return nil
}
