package raster

import (
	"math"
	"testing"

	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

// collectSink records emitted texel references.
type collectSink struct {
	refs []ref
}

type ref struct {
	tid     texture.ID
	u, v, m int
}

func (s *collectSink) Texel(tid texture.ID, u, v, m int) {
	s.refs = append(s.refs, ref{tid, u, v, m})
}

func tex(t *testing.T, w, h int) *texture.Texture {
	t.Helper()
	return texture.MustNew("t", w, h, texture.RGBA8888,
		texture.Checker{A: texture.RGBA{R: 255, A: 255}, B: texture.RGBA{G: 255, A: 255}, N: 4})
}

// fullScreenQuad returns two triangles covering the whole viewport at
// depth w=dist with UVs spanning [0,1].
func fullScreenQuad(dist float64) [2][3]Vertex {
	// Clip coords at x,y in {-w, w} project to the viewport corners.
	// Z chosen so that z/w = (dist-1)/dist: farther quads have larger
	// normalized depth, as a projection matrix would produce.
	mk := func(x, y, u, v float64) Vertex {
		return Vertex{
			Pos: vecmath.Vec4{X: x * dist, Y: y * dist, Z: dist - 1, W: dist},
			UV:  vecmath.Vec2{X: u, Y: v},
		}
	}
	bl := mk(-1, -1, 0, 1)
	br := mk(1, -1, 1, 1)
	tl := mk(-1, 1, 0, 0)
	tr := mk(1, 1, 1, 0)
	return [2][3]Vertex{{tl, bl, br}, {tl, br, tr}}
}

func TestFullScreenQuadCoversEveryPixelOnce(t *testing.T) {
	r := MustNew(Config{Width: 64, Height: 32, Mode: Point})
	var sink collectSink
	r.SetSink(&sink)
	tx := tex(t, 64, 32)
	r.BeginFrame()
	for _, tri := range fullScreenQuad(1) {
		r.DrawTriangle(tx, tri[0], tri[1], tri[2], 1)
	}
	if got := r.Pixels(); got != 64*32 {
		t.Fatalf("pixels = %d, want %d (no gaps, no double-raster on shared edge)",
			got, 64*32)
	}
	if len(sink.refs) != 64*32 {
		t.Fatalf("texel refs = %d, want %d (point sampling: 1/pixel)",
			len(sink.refs), 64*32)
	}
}

func TestPointSamplingMapsUVLinearly(t *testing.T) {
	// A screen-aligned quad with matching texture size gives an identity
	// pixel->texel mapping at level 0.
	r := MustNew(Config{Width: 32, Height: 32, Mode: Point})
	seen := map[[2]int]bool{}
	r.SetSink(SinkFunc(func(tid texture.ID, u, v, m int) {
		if m != 0 {
			t.Fatalf("level = %d, want 0 for 1:1 mapping", m)
		}
		seen[[2]int{u, v}] = true
	}))
	tx := tex(t, 32, 32)
	r.BeginFrame()
	for _, tri := range fullScreenQuad(1) {
		r.DrawTriangle(tx, tri[0], tri[1], tri[2], 1)
	}
	if len(seen) != 32*32 {
		t.Fatalf("distinct texels = %d, want 1024", len(seen))
	}
}

func TestMipLevelSelectionByDistance(t *testing.T) {
	// Doubling the texture relative to the screen doubles texels per
	// pixel: rho = 2 selects level 1 for a 64-texel texture on a
	// 32-pixel screen.
	r := MustNew(Config{Width: 32, Height: 32, Mode: Point})
	levels := map[int]int{}
	r.SetSink(SinkFunc(func(tid texture.ID, u, v, m int) { levels[m]++ }))
	tx := tex(t, 64, 64)
	r.BeginFrame()
	for _, tri := range fullScreenQuad(1) {
		r.DrawTriangle(tx, tri[0], tri[1], tri[2], 1)
	}
	if len(levels) != 1 || levels[1] == 0 {
		t.Fatalf("levels used = %v, want only level 1", levels)
	}
}

func TestBilinearEmitsFourTexels(t *testing.T) {
	r := MustNew(Config{Width: 16, Height: 16, Mode: Bilinear})
	var sink collectSink
	r.SetSink(&sink)
	tx := tex(t, 16, 16)
	r.BeginFrame()
	for _, tri := range fullScreenQuad(1) {
		r.DrawTriangle(tx, tri[0], tri[1], tri[2], 1)
	}
	if want := int(r.Pixels()) * 4; len(sink.refs) != want {
		t.Fatalf("refs = %d, want %d", len(sink.refs), want)
	}
}

func TestTrilinearEmitsEightTexelsWhenBetweenLevels(t *testing.T) {
	// A 48-texel-per-32-pixel mapping gives rho = 1.5: lambda between
	// levels 0 and 1 — but 48 is not a power of two, so use a 64 texture
	// with UV scaled to 0.75 giving the same footprint.
	r := MustNew(Config{Width: 32, Height: 32, Mode: Trilinear})
	var sink collectSink
	r.SetSink(&sink)
	tx := tex(t, 64, 64)
	quad := fullScreenQuad(1)
	for i := range quad {
		for j := range quad[i] {
			quad[i][j].UV = quad[i][j].UV.Scale(0.75)
		}
	}
	r.BeginFrame()
	for _, tri := range quad {
		r.DrawTriangle(tx, tri[0], tri[1], tri[2], 1)
	}
	if want := int(r.Pixels()) * 8; len(sink.refs) != want {
		t.Fatalf("refs = %d, want %d (4 texels x 2 levels)", len(sink.refs), want)
	}
	levels := map[int]bool{}
	for _, rf := range sink.refs {
		levels[rf.m] = true
	}
	if !levels[0] || !levels[1] {
		t.Errorf("levels = %v, want 0 and 1", levels)
	}
}

func TestTrilinearMagnificationEmitsFour(t *testing.T) {
	// Magnified texture (texture smaller than screen area): lambda < 0
	// clamps both levels to 0 and only one bilinear fetch is needed.
	r := MustNew(Config{Width: 32, Height: 32, Mode: Trilinear})
	var sink collectSink
	r.SetSink(&sink)
	tx := tex(t, 8, 8)
	r.BeginFrame()
	for _, tri := range fullScreenQuad(1) {
		r.DrawTriangle(tx, tri[0], tri[1], tri[2], 1)
	}
	if want := int(r.Pixels()) * 4; len(sink.refs) != want {
		t.Fatalf("refs = %d, want %d", len(sink.refs), want)
	}
}

func TestDepthComplexityCountsOverdraw(t *testing.T) {
	r := MustNew(Config{Width: 16, Height: 16, Mode: Point})
	tx := tex(t, 16, 16)
	r.BeginFrame()
	for i := 0; i < 3; i++ {
		for _, tri := range fullScreenQuad(1) {
			r.DrawTriangle(tx, tri[0], tri[1], tri[2], 1)
		}
	}
	if got := r.Pixels(); got != 3*16*16 {
		t.Fatalf("pixels = %d, want %d (overdraw counts)", got, 3*16*16)
	}
}

func TestZBeforeTextureSkipsOccluded(t *testing.T) {
	r := MustNew(Config{Width: 16, Height: 16, Mode: Point, ZBeforeTexture: true})
	var sink collectSink
	r.SetSink(&sink)
	tx := tex(t, 16, 16)
	r.BeginFrame()
	// Near quad first...
	for _, tri := range fullScreenQuad(1) {
		r.DrawTriangle(tx, tri[0], tri[1], tri[2], 1)
	}
	// ...then a far quad, fully occluded.
	far := fullScreenQuad(10)
	for _, tri := range far {
		r.DrawTriangle(tx, tri[0], tri[1], tri[2], 1)
	}
	if got := r.Pixels(); got != 16*16 {
		t.Fatalf("pixels = %d, want %d (occluded pixels skipped)", got, 16*16)
	}
	if len(sink.refs) != 16*16 {
		t.Fatalf("refs = %d, want %d", len(sink.refs), 16*16)
	}
}

func TestZBufferResolvesOrderIndependently(t *testing.T) {
	// Far drawn first, then near: colour must come from the near quad.
	r := MustNew(Config{Width: 8, Height: 8, Mode: Point, Framebuffer: true})
	red := texture.MustNew("red", 8, 8, texture.RGBA8888,
		texture.Solid{C: texture.RGBA{R: 255, A: 255}})
	blue := texture.MustNew("blue", 8, 8, texture.RGBA8888,
		texture.Solid{C: texture.RGBA{B: 255, A: 255}})
	r.BeginFrame()
	for _, tri := range fullScreenQuad(10) {
		r.DrawTriangle(red, tri[0], tri[1], tri[2], 1)
	}
	for _, tri := range fullScreenQuad(1) {
		r.DrawTriangle(blue, tri[0], tri[1], tri[2], 1)
	}
	c := r.Color()[3*8+3]
	if c.B != 255 || c.R != 0 {
		t.Fatalf("centre pixel = %+v, want blue (near quad wins)", c)
	}

	// And the reverse order must give the same image.
	r2 := MustNew(Config{Width: 8, Height: 8, Mode: Point, Framebuffer: true})
	r2.BeginFrame()
	for _, tri := range fullScreenQuad(1) {
		r2.DrawTriangle(blue, tri[0], tri[1], tri[2], 1)
	}
	for _, tri := range fullScreenQuad(10) {
		r2.DrawTriangle(red, tri[0], tri[1], tri[2], 1)
	}
	c2 := r2.Color()[3*8+3]
	if c2 != c {
		t.Fatalf("order dependence: %+v vs %+v", c, c2)
	}
}

func TestPerspectiveCorrection(t *testing.T) {
	// A quad receding in depth: with perspective-correct interpolation
	// the texture-space midpoint is NOT at the screen-space midpoint
	// (it shifts toward the near edge). Verify the u at the horizontal
	// screen centre exceeds what affine interpolation would give.
	r := MustNew(Config{Width: 64, Height: 64, Mode: Point})
	tx := tex(t, 64, 64)

	// Left edge at w=1, right edge at w=4 (receding to the right).
	mk := func(x, y, w, u, v float64) Vertex {
		return Vertex{Pos: vecmath.Vec4{X: x * w, Y: y * w, Z: 0, W: w},
			UV: vecmath.Vec2{X: u, Y: v}}
	}
	bl := mk(-1, -1, 1, 0, 1)
	tl := mk(-1, 1, 1, 0, 0)
	br := mk(1, -1, 4, 1, 1)
	tr := mk(1, 1, 4, 1, 0)

	// At screen fraction s = 0.5 the perspective-correct u is
	//   lerp(u0/w0, u1/w1, s) / lerp(1/w0, 1/w1, s)
	//   = (0.5 * 1/4) / (0.5 * (1 + 1/4)) = 0.2 of the texture
	// i.e. ~12.8 texels at level 0 (affine interpolation would give 32).
	found := false
	r.SetSink(SinkFunc(func(tid texture.ID, u, v, m int) {
		baseU := u << uint(m) // scale back to base-level texels
		if baseU >= 10 && baseU <= 16 {
			found = true
		}
	}))
	r.BeginFrame()
	r.DrawTriangle(tx, tl, bl, br, 1)
	r.DrawTriangle(tx, tl, br, tr, 1)
	if !found {
		t.Error("no sample near the perspective-correct centre u (~12.8 texels)")
	}
}

func TestDegenerateTriangleIgnored(t *testing.T) {
	r := MustNew(Config{Width: 16, Height: 16, Mode: Point})
	tx := tex(t, 16, 16)
	v := Vertex{Pos: vecmath.Vec4{X: 0, Y: 0, Z: 0, W: 1}}
	r.BeginFrame()
	r.DrawTriangle(tx, v, v, v, 1)
	if r.Pixels() != 0 {
		t.Error("degenerate triangle rasterized pixels")
	}
}

func TestOffscreenTriangleClippedToViewport(t *testing.T) {
	r := MustNew(Config{Width: 16, Height: 16, Mode: Point})
	tx := tex(t, 16, 16)
	// Triangle entirely to the left of the viewport.
	mk := func(x, y float64) Vertex {
		return Vertex{Pos: vecmath.Vec4{X: x, Y: y, Z: 0, W: 1}}
	}
	r.BeginFrame()
	r.DrawTriangle(tx, mk(-5, 0), mk(-3, 1), mk(-3, -1), 1)
	if r.Pixels() != 0 {
		t.Error("offscreen triangle rasterized pixels")
	}
	// Triangle partially overlapping must not write out of bounds
	// (would panic) and must rasterize something.
	r.DrawTriangle(tx, mk(-1, -2), mk(3, 2), mk(-1, 2), 1)
	if r.Pixels() == 0 {
		t.Error("partially visible triangle rasterized nothing")
	}
}

func TestWindingOrderIrrelevant(t *testing.T) {
	// Both windings must rasterize the same pixels (no back-face culling
	// at this stage; the scene pipeline handles culling).
	r1 := MustNew(Config{Width: 16, Height: 16, Mode: Point})
	r2 := MustNew(Config{Width: 16, Height: 16, Mode: Point})
	tx := tex(t, 16, 16)
	mk := func(x, y float64) Vertex {
		return Vertex{Pos: vecmath.Vec4{X: x, Y: y, Z: 0, W: 1},
			UV: vecmath.Vec2{X: (x + 1) / 2, Y: (y + 1) / 2}}
	}
	a, b, c := mk(-0.8, -0.8), mk(0.8, -0.8), mk(0, 0.8)
	r1.BeginFrame()
	r1.DrawTriangle(tx, a, b, c, 1)
	r2.BeginFrame()
	r2.DrawTriangle(tx, c, b, a, 1)
	if r1.Pixels() == 0 || r1.Pixels() != r2.Pixels() {
		t.Errorf("winding changed coverage: %d vs %d", r1.Pixels(), r2.Pixels())
	}
}

func TestSampleModeString(t *testing.T) {
	if Point.String() != "point" || Bilinear.String() != "bilinear" ||
		Trilinear.String() != "trilinear" {
		t.Error("unexpected mode strings")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Width: 0, Height: 10}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(Config{Width: 10, Height: -1}); err == nil {
		t.Error("negative height accepted")
	}
	for _, m := range []SampleMode{-1, Trilinear + 1, 99} {
		if _, err := New(Config{Width: 10, Height: 10, Mode: m}); err == nil {
			t.Errorf("unknown sample mode %d accepted", int(m))
		}
	}
}

func TestShadeDarkensColour(t *testing.T) {
	r := MustNew(Config{Width: 4, Height: 4, Mode: Point, Framebuffer: true})
	white := texture.MustNew("w", 4, 4, texture.RGBA8888,
		texture.Solid{C: texture.RGBA{R: 200, G: 200, B: 200, A: 255}})
	r.BeginFrame()
	for _, tri := range fullScreenQuad(1) {
		r.DrawTriangle(white, tri[0], tri[1], tri[2], 0.5)
	}
	c := r.Color()[2*4+2]
	if c.R != 100 || c.G != 100 || c.B != 100 {
		t.Errorf("shaded colour = %+v, want 100s", c)
	}
}

func TestLerpColor(t *testing.T) {
	a := texture.RGBA{R: 0, G: 100, B: 200, A: 255}
	b := texture.RGBA{R: 100, G: 200, B: 0, A: 255}
	mid := lerpColor(a, b, 0.5)
	if mid.R != 50 || mid.G != 150 || mid.B != 100 {
		t.Errorf("lerp = %+v", mid)
	}
	if lerpColor(a, b, 0) != a {
		t.Error("t=0 not identity")
	}
}

func TestFootprintIsotropy(t *testing.T) {
	// rho must be rotation-agnostic enough that a 2x-minified quad
	// selects level 1 regardless of 90-degree UV rotation.
	r := MustNew(Config{Width: 32, Height: 32, Mode: Point})
	levels := map[int]int{}
	r.SetSink(SinkFunc(func(tid texture.ID, u, v, m int) { levels[m]++ }))
	tx := tex(t, 64, 64)
	quad := fullScreenQuad(1)
	// Rotate UVs 90 degrees: (u,v) -> (v, 1-u).
	for i := range quad {
		for j := range quad[i] {
			uv := quad[i][j].UV
			quad[i][j].UV = vecmath.Vec2{X: uv.Y, Y: 1 - uv.X}
		}
	}
	r.BeginFrame()
	for _, tri := range quad {
		r.DrawTriangle(tx, tri[0], tri[1], tri[2], 1)
	}
	if len(levels) != 1 || levels[1] == 0 {
		t.Errorf("levels = %v, want only level 1", levels)
	}
}

func TestEmittedCoordinatesInRange(t *testing.T) {
	r := MustNew(Config{Width: 32, Height: 32, Mode: Trilinear})
	tx := tex(t, 32, 32)
	r.SetSink(SinkFunc(func(tid texture.ID, u, v, m int) {
		l := tx.Levels[m]
		if u < 0 || u >= l.Width || v < 0 || v >= l.Height {
			t.Fatalf("texel (%d,%d) out of range for level %d (%dx%d)",
				u, v, m, l.Width, l.Height)
		}
	}))
	// UVs far outside [0,1] exercise wrapping.
	quad := fullScreenQuad(1)
	for i := range quad {
		for j := range quad[i] {
			quad[i][j].UV = quad[i][j].UV.Scale(7).Add(vecmath.Vec2{X: -3, Y: 11})
		}
	}
	r.BeginFrame()
	for _, tri := range quad {
		r.DrawTriangle(tx, tri[0], tri[1], tri[2], 1)
	}
	if r.Pixels() == 0 {
		t.Fatal("nothing rasterized")
	}
}

func TestGradientMath(t *testing.T) {
	// planeGradient through three points must reproduce the values.
	// Plane through the three samples is f = 5 + x + 2y.
	g := planeGradient(0, 0, 10, 0, 0, 10, 1/(10.0*10.0), 5, 15, 25)
	for _, c := range []struct{ x, y, want float64 }{
		{0, 0, 5}, {10, 0, 15}, {0, 10, 25}, {5, 5, 20},
	} {
		if got := g.at(c.x, c.y); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("g(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}
