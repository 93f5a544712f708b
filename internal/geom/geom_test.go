package geom

import (
	"math"
	"testing"
	"testing/quick"

	"adavp/internal/rng"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := (Point{3, 4}).Norm(); !almostEqual(got, 5) {
		t.Errorf("Norm = %f", got)
	}
	if got := p.Dist(p); got != 0 {
		t.Errorf("Dist(self) = %f", got)
	}
}

func TestRectAccessors(t *testing.T) {
	r := Rect{Left: 10, Top: 20, W: 30, H: 40}
	if got := r.Right(); got != 40 {
		t.Errorf("Right = %f", got)
	}
	if got := r.Bottom(); got != 60 {
		t.Errorf("Bottom = %f", got)
	}
	if got := r.Center(); got != (Point{25, 40}) {
		t.Errorf("Center = %v", got)
	}
	if got := r.Area(); got != 1200 {
		t.Errorf("Area = %f", got)
	}
}

func TestRectFromCenter(t *testing.T) {
	r := RectFromCenter(Point{10, 10}, 4, 6)
	if r.Left != 8 || r.Top != 7 || r.W != 4 || r.H != 6 {
		t.Errorf("RectFromCenter = %v", r)
	}
	if got := r.Center(); got != (Point{10, 10}) {
		t.Errorf("Center = %v", got)
	}
}

func TestEmpty(t *testing.T) {
	for _, r := range []Rect{{}, {W: -1, H: 5}, {W: 5, H: 0}} {
		if !r.Empty() {
			t.Errorf("%v should be empty", r)
		}
		if r.Area() != 0 {
			t.Errorf("%v area should be 0", r)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := Rect{Left: 0, Top: 0, W: 10, H: 10}
	b := Rect{Left: 5, Top: 5, W: 10, H: 10}
	got := a.Intersect(b)
	want := Rect{Left: 5, Top: 5, W: 5, H: 5}
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	// Disjoint rectangles intersect to empty.
	c := Rect{Left: 100, Top: 100, W: 5, H: 5}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersection not empty")
	}
	// Touching edges do not overlap.
	d := Rect{Left: 10, Top: 0, W: 5, H: 10}
	if !a.Intersect(d).Empty() {
		t.Error("edge-touching intersection not empty")
	}
}

func TestContains(t *testing.T) {
	r := Rect{Left: 0, Top: 0, W: 10, H: 10}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},
		{Point{10, 5}, false}, // right edge exclusive
		{Point{5, 10}, false}, // bottom edge exclusive
		{Point{-1, 5}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %t, want %t", c.p, got, c.want)
		}
	}
}

func TestIoUKnownValues(t *testing.T) {
	a := Rect{Left: 0, Top: 0, W: 10, H: 10}
	cases := []struct {
		name string
		b    Rect
		want float64
	}{
		{"identical", a, 1},
		{"disjoint", Rect{Left: 20, Top: 20, W: 10, H: 10}, 0},
		{"half overlap", Rect{Left: 0, Top: 5, W: 10, H: 10}, 50.0 / 150.0},
		{"contained quarter", Rect{Left: 0, Top: 0, W: 5, H: 5}, 0.25},
		{"empty", Rect{}, 0},
	}
	for _, c := range cases {
		if got := a.IoU(c.b); !almostEqual(got, c.want) {
			t.Errorf("%s: IoU = %f, want %f", c.name, got, c.want)
		}
	}
}

func randRect(s *rng.Stream) Rect {
	return Rect{
		Left: s.Range(-50, 50),
		Top:  s.Range(-50, 50),
		W:    s.Range(0.1, 60),
		H:    s.Range(0.1, 60),
	}
}

// Property: IoU is symmetric, bounded in [0,1], and 1 only for r == r.
func TestIoUProperties(t *testing.T) {
	s := rng.New(101)
	for i := 0; i < 5000; i++ {
		a := randRect(s)
		b := randRect(s)
		ab := a.IoU(b)
		ba := b.IoU(a)
		if !almostEqual(ab, ba) {
			t.Fatalf("IoU not symmetric: %f vs %f for %v, %v", ab, ba, a, b)
		}
		if ab < 0 || ab > 1+1e-12 {
			t.Fatalf("IoU out of range: %f", ab)
		}
		if !almostEqual(a.IoU(a), 1) {
			t.Fatalf("IoU(a,a) = %f for %v", a.IoU(a), a)
		}
	}
}

// Property: intersection is contained in both.
func TestIntersectProperties(t *testing.T) {
	s := rng.New(103)
	for i := 0; i < 5000; i++ {
		a := randRect(s)
		b := randRect(s)
		inter := a.Intersect(b)
		if !inter.Empty() {
			if inter.Area() > a.Area()+1e-9 || inter.Area() > b.Area()+1e-9 {
				t.Fatalf("intersection larger than operand: %v %v -> %v", a, b, inter)
			}
		}
		if inter.Area() > math.Min(a.Area(), b.Area())+1e-9 {
			t.Fatalf("intersection exceeds min area")
		}
	}
}

func TestTranslate(t *testing.T) {
	r := Rect{Left: 1, Top: 2, W: 3, H: 4}
	got := r.Translate(Point{10, 20})
	if got != (Rect{Left: 11, Top: 22, W: 3, H: 4}) {
		t.Errorf("Translate = %v", got)
	}
}

// Property: translation preserves IoU.
func TestIoUTranslationInvariant(t *testing.T) {
	if err := quick.Check(func(dx, dy float64) bool {
		if math.IsNaN(dx) || math.IsInf(dx, 0) || math.Abs(dx) > 1e6 {
			dx = 1
		}
		if math.IsNaN(dy) || math.IsInf(dy, 0) || math.Abs(dy) > 1e6 {
			dy = 1
		}
		a := Rect{Left: 0, Top: 0, W: 10, H: 10}
		b := Rect{Left: 3, Top: 4, W: 8, H: 6}
		d := Point{dx, dy}
		return math.Abs(a.IoU(b)-a.Translate(d).IoU(b.Translate(d))) < 1e-6
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestClip(t *testing.T) {
	bounds := Rect{Left: 0, Top: 0, W: 100, H: 100}
	r := Rect{Left: -10, Top: 50, W: 30, H: 80}
	got := r.Clip(bounds)
	want := Rect{Left: 0, Top: 50, W: 20, H: 50}
	if got != want {
		t.Errorf("Clip = %v, want %v", got, want)
	}
}

func TestStrings(t *testing.T) {
	// Exercise the Stringer implementations for coverage of formatting paths.
	if s := (Point{1, 2}).String(); s == "" {
		t.Error("empty Point string")
	}
	if s := (Rect{1, 2, 3, 4}).String(); s == "" {
		t.Error("empty Rect string")
	}
}

func BenchmarkIoU(b *testing.B) {
	r1 := Rect{Left: 0, Top: 0, W: 10, H: 10}
	r2 := Rect{Left: 5, Top: 5, W: 10, H: 10}
	for i := 0; i < b.N; i++ {
		_ = r1.IoU(r2)
	}
}
