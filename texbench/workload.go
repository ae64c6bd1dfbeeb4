package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"texcache/internal/cache"
	"texcache/internal/core"
	"texcache/internal/experiments"
	"texcache/internal/raster"
	"texcache/internal/scene"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
	"texcache/internal/workload"
)

// CommittedSeed is the seed the checked-in baseline was measured on.
const CommittedSeed = 1

// jitterFrac scales the camera-waypoint jitter: each coordinate of every
// eye and target point moves by up to this fraction of the diagonal of
// the path's eye-point bounding box (about 0.7 units on Village's
// 360-unit walk, under a third of a street width).
const jitterFrac = 0.002

// Kind selects what a workload's timed region calls.
type Kind int

const (
	// KindSweep times core.RunComparison over the spec set.
	KindSweep Kind = iota
	// KindFast times core.RunComparison with FastSweep set.
	KindFast
)

// Def is one named benchmark workload: its scene, scale and spec set.
type Def struct {
	Name  string
	Why   string
	Kind  Kind
	Build func() *workload.Workload
	// Width, Height and Frames fix the render scale.
	Width, Height, Frames int
	Specs                 func() []core.CacheSpec
}

// Defs returns the workloads in presentation order.
func Defs() []Def {
	return []Def{
		{
			Name:  "village-sweep",
			Why:   "13-spec exact sweep on Village: per-spec L1 simulation dominates, 5 distinct L1 geometries",
			Kind:  KindSweep,
			Build: workload.Village,
			Width: 256, Height: 192, Frames: 24,
			Specs: experiments.SweepSpecs,
		},
		{
			Name:  "city-fast",
			Why:   "analytic -fast sweep of 13 specs on City: render plus reuse probe, no replay",
			Kind:  KindFast,
			Build: workload.City,
			Width: 256, Height: 192, Frames: 30,
			Specs: experiments.SweepSpecs,
		},
	}
}

// Lookup finds a workload by name.
func Lookup(name string) (Def, error) {
	for _, d := range Defs() {
		if d.Name == name {
			return d, nil
		}
	}
	return Def{}, fmt.Errorf("texbench: unknown workload %q", name)
}

// Render is the render configuration every engine call of the workload
// uses. It sets no engine knob: the program picks its default engine.
func (d Def) Render() core.Config {
	return core.Config{
		Width: d.Width, Height: d.Height, Frames: d.Frames,
		Mode: raster.Trilinear,
	}
}

// SpecConfig merges one spec into the render configuration, as the
// single-spec simulator takes it.
func (d Def) SpecConfig(s core.CacheSpec) core.Config {
	cfg := d.Render()
	cfg.L1Bytes = s.L1Bytes
	cfg.L1Ways = s.L1Ways
	cfg.L2 = s.L2
	cfg.TLBEntries = s.TLBEntries
	return cfg
}

// Layouts returns every tile layout the workload's specs address: the
// canonical L1 layout first, then each distinct L2 layout.
func (d Def) Layouts() []texture.TileLayout {
	out := []texture.TileLayout{texture.CanonicalL1()}
	seen := map[texture.TileLayout]bool{}
	for _, s := range d.Specs() {
		if l, ok := l2Layout(s); ok && !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// Instantiate builds the workload and jitters its camera path by seed.
// The program only ever sees the returned workload.
func (d Def) Instantiate(seed uint64) *workload.Workload {
	w := d.Build()
	w.Path = JitterPath(w.Path, seed, d.Name)
	return w
}

// Prepare builds the tilings of every layout the workload addresses.
func (d Def) Prepare(w *workload.Workload) error {
	for _, l := range d.Layouts() {
		if err := w.Scene.Textures.Prepare(l); err != nil {
			return fmt.Errorf("texbench: prepare %+v: %w", l, err)
		}
	}
	return nil
}

// splitmix is SplitMix64, the jitter generator: small, seedable and
// stable across Go releases.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a value in [-1, 1).
func (r *splitmix) unit() float64 {
	return float64(r.next()>>11)/float64(1<<52) - 1
}

// JitterPath returns a copy of p with every waypoint's eye and target
// moved by a seeded offset of at most jitterFrac of the eye-point
// bounding-box diagonal per coordinate. The generator is keyed by seed
// and workload name, so each workload draws its own offsets.
func JitterPath(p scene.Path, seed uint64, name string) scene.Path {
	h := sha256.Sum256([]byte(name))
	r := &splitmix{s: seed ^ binary.LittleEndian.Uint64(h[:8])}
	amp := jitterFrac * pathExtent(p)
	off := func(v vecmath.Vec3) vecmath.Vec3 {
		return vecmath.Vec3{X: v.X + amp*r.unit(), Y: v.Y + amp*r.unit(), Z: v.Z + amp*r.unit()}
	}
	out := scene.Path{Points: make([]scene.Waypoint, len(p.Points))}
	for i, wp := range p.Points {
		out.Points[i] = scene.Waypoint{Eye: off(wp.Eye), Target: off(wp.Target)}
	}
	return out
}

// pathExtent is the diagonal of the eye points' bounding box.
func pathExtent(p scene.Path) float64 {
	if len(p.Points) == 0 {
		return 0
	}
	lo, hi := p.Points[0].Eye, p.Points[0].Eye
	for _, wp := range p.Points[1:] {
		e := wp.Eye
		lo = vecmath.Vec3{X: math.Min(lo.X, e.X), Y: math.Min(lo.Y, e.Y), Z: math.Min(lo.Z, e.Z)}
		hi = vecmath.Vec3{X: math.Max(hi.X, e.X), Y: math.Max(hi.Y, e.Y), Z: math.Max(hi.Z, e.Z)}
	}
	return hi.Sub(lo).Len()
}

// StreamDigest records the workload's texel reference stream and returns
// its SHA-256 (hex, first 16 bytes).
func StreamDigest(d Def, w *workload.Workload) (string, error) {
	h := sha256.New()
	if _, err := core.RecordTrace(w, d.Render(), h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// l2Layout returns the spec's L2 tile layout over 4x4 sub-blocks, as
// the simulator builds it, and false for the pull architecture.
func l2Layout(s core.CacheSpec) (texture.TileLayout, bool) {
	if s.L2 == nil {
		return texture.TileLayout{}, false
	}
	l := s.L2.Layout
	l.L1Size = 4
	return l, true
}

// missBytes is the host download of one L1 miss that misses L2 in full
// or in part: one L1 line under sector mapping, the whole L2 block
// without it (Figure 7).
func missBytes(cfg cache.L2Config) int64 {
	if cfg.NoSectorMapping {
		return int64(cfg.Layout.L2BlockBytes())
	}
	return cache.L1LineBytes
}
