// Package geom provides the 2-D geometric primitives used throughout AdaVP:
// points, axis-aligned rectangles, and the intersection-over-union measure
// that the paper uses to match detections against ground truth (Eq. 2).
//
// Rectangles follow the paper's bounding-box convention: a 4-tuple
// (left, top, width, height) in continuous pixel coordinates, with the origin
// at the top-left corner of the frame and y growing downward.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in continuous pixel coordinates.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Rect is an axis-aligned bounding box (left, top, width, height).
// A Rect with W <= 0 or H <= 0 is empty.
type Rect struct {
	Left, Top, W, H float64
}

// RectFromCenter builds a rectangle centered at c with the given size.
func RectFromCenter(c Point, w, h float64) Rect {
	return Rect{Left: c.X - w/2, Top: c.Y - h/2, W: w, H: h}
}

// Right returns the x coordinate of the right edge.
func (r Rect) Right() float64 { return r.Left + r.W }

// Bottom returns the y coordinate of the bottom edge.
func (r Rect) Bottom() float64 { return r.Top + r.H }

// Center returns the rectangle's center point.
func (r Rect) Center() Point { return Point{r.Left + r.W/2, r.Top + r.H/2} }

// Empty reports whether the rectangle has no area.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Area returns the rectangle's area, or 0 if it is empty.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.W * r.H
}

// Translate returns r shifted by the vector d.
func (r Rect) Translate(d Point) Rect {
	r.Left += d.X
	r.Top += d.Y
	return r
}

// Contains reports whether the point p lies inside r (inclusive of the left
// and top edges, exclusive of the right and bottom edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Left && p.X < r.Right() && p.Y >= r.Top && p.Y < r.Bottom()
}

// Intersect returns the intersection of r and q, or an empty Rect if the two
// do not overlap.
func (r Rect) Intersect(q Rect) Rect {
	left := math.Max(r.Left, q.Left)
	top := math.Max(r.Top, q.Top)
	right := math.Min(r.Right(), q.Right())
	bottom := math.Min(r.Bottom(), q.Bottom())
	if right <= left || bottom <= top {
		return Rect{}
	}
	return Rect{Left: left, Top: top, W: right - left, H: bottom - top}
}

// Clip returns r clipped to the bounds rectangle.
func (r Rect) Clip(bounds Rect) Rect { return r.Intersect(bounds) }

// IoU returns the intersection-over-union of r and q (Eq. 2 in the paper):
//
//	IoU = area(r ∩ q) / area(r ∪ q)
//
// where the union area is computed as area(r) + area(q) - area(r ∩ q).
// The result is in [0, 1]; two empty rectangles have IoU 0.
func (r Rect) IoU(q Rect) float64 {
	inter := r.Intersect(q).Area()
	if inter <= 0 {
		return 0
	}
	union := r.Area() + q.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.1f %.1f %.1fx%.1f]", r.Left, r.Top, r.W, r.H)
}
