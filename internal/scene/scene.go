// Package scene provides the scene-management substrate standing in for
// the Intel Scene Manager of the study: meshes of textured triangles,
// object placement, bounding-sphere frustum culling, homogeneous-space
// clipping, scripted camera paths, and the geometry pipeline feeding the
// rasterizer.
package scene

import (
	"math"

	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

// Triangle is one textured triangle in model space.
type Triangle struct {
	P   [3]vecmath.Vec3
	UV  [3]vecmath.Vec2
	Tex *texture.Texture
}

// Mesh is a collection of triangles with a model-space bounding sphere.
type Mesh struct {
	Tris []Triangle

	boundsValid bool
	center      vecmath.Vec3
	radius      float64
}

// Add appends triangles and invalidates cached bounds.
func (m *Mesh) Add(tris ...Triangle) {
	m.Tris = append(m.Tris, tris...)
	m.boundsValid = false
}

// Bounds returns the model-space bounding sphere (centroid-based).
func (m *Mesh) Bounds() (center vecmath.Vec3, radius float64) {
	if !m.boundsValid {
		m.computeBounds()
	}
	return m.center, m.radius
}

func (m *Mesh) computeBounds() {
	m.boundsValid = true
	m.center = vecmath.Vec3{}
	m.radius = 0
	if len(m.Tris) == 0 {
		return
	}
	var sum vecmath.Vec3
	n := 0
	for _, t := range m.Tris {
		for _, p := range t.P {
			sum = sum.Add(p)
			n++
		}
	}
	m.center = sum.Scale(1 / float64(n))
	for _, t := range m.Tris {
		for _, p := range t.P {
			if d := p.Sub(m.center).Len(); d > m.radius {
				m.radius = d
			}
		}
	}
}

// Object places a mesh in the world.
type Object struct {
	Mesh      *Mesh
	Transform vecmath.Mat4
	// Name aids debugging and reports.
	Name string
}

// NewObject constructs an object with the given transform.
func NewObject(name string, mesh *Mesh, transform vecmath.Mat4) *Object {
	return &Object{Mesh: mesh, Transform: transform, Name: name}
}

// WorldBounds returns the world-space bounding sphere of the object. The
// radius is scaled conservatively by the largest basis-vector length of
// the transform.
func (o *Object) WorldBounds() (center vecmath.Vec3, radius float64) {
	c, r := o.Mesh.Bounds()
	center = o.Transform.MulPoint(c)
	sx := o.Transform.MulDir(vecmath.Vec3{X: 1}).Len()
	sy := o.Transform.MulDir(vecmath.Vec3{Y: 1}).Len()
	sz := o.Transform.MulDir(vecmath.Vec3{Z: 1}).Len()
	scale := math.Max(sx, math.Max(sy, sz))
	return center, r * scale
}

// Scene is a set of objects sharing a texture registry.
type Scene struct {
	Objects  []*Object
	Textures *texture.Set
}

// NewScene returns an empty scene with a fresh texture registry.
func NewScene() *Scene {
	return &Scene{Textures: texture.NewSet()}
}

// Add places objects into the scene.
func (s *Scene) Add(objs ...*Object) { s.Objects = append(s.Objects, objs...) }

// TriangleCount returns the total triangles across all objects.
func (s *Scene) TriangleCount() int {
	n := 0
	for _, o := range s.Objects {
		n += len(o.Mesh.Tris)
	}
	return n
}
