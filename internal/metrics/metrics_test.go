package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"adavp/internal/core"
	"adavp/internal/geom"
	"adavp/internal/rng"
)

func det(c core.Class, l, t, w, h, score float64) core.Detection {
	return core.Detection{Class: c, Box: geom.Rect{Left: l, Top: t, W: w, H: h}, Score: score}
}

func obj(id int, c core.Class, l, t, w, h float64) core.Object {
	return core.Object{ID: id, Class: c, Box: geom.Rect{Left: l, Top: t, W: w, H: h}}
}

func TestMatchPerfect(t *testing.T) {
	truth := []core.Object{
		obj(1, core.ClassCar, 10, 10, 20, 10),
		obj(2, core.ClassPerson, 50, 20, 8, 20),
	}
	dets := []core.Detection{
		det(core.ClassCar, 10, 10, 20, 10, 0.9),
		det(core.ClassPerson, 50, 20, 8, 20, 0.8),
	}
	m := Match(dets, truth, 0.5)
	if m != (MatchResult{TP: 2, FP: 0, FN: 0}) {
		t.Errorf("Match = %+v", m)
	}
	if m.F1() != 1 {
		t.Errorf("F1 = %f", m.F1())
	}
}

func TestMatchWrongLabelIsFPAndFN(t *testing.T) {
	truth := []core.Object{obj(1, core.ClassCar, 10, 10, 20, 10)}
	dets := []core.Detection{det(core.ClassTruck, 10, 10, 20, 10, 0.9)}
	m := Match(dets, truth, 0.5)
	if m != (MatchResult{TP: 0, FP: 1, FN: 1}) {
		t.Errorf("Match = %+v", m)
	}
	if m.F1() != 0 {
		t.Errorf("F1 = %f", m.F1())
	}
}

func TestMatchLowIoUIsFP(t *testing.T) {
	truth := []core.Object{obj(1, core.ClassCar, 0, 0, 10, 10)}
	dets := []core.Detection{det(core.ClassCar, 8, 8, 10, 10, 0.9)} // IoU ≈ 0.02
	m := Match(dets, truth, 0.5)
	if m.TP != 0 || m.FP != 1 || m.FN != 1 {
		t.Errorf("Match = %+v", m)
	}
}

func TestMatchGreedyPrefersHighScore(t *testing.T) {
	// Two detections compete for one ground-truth box; the higher-score one
	// must win and the other becomes a false positive.
	truth := []core.Object{obj(1, core.ClassCar, 10, 10, 20, 10)}
	dets := []core.Detection{
		det(core.ClassCar, 11, 10, 20, 10, 0.5),
		det(core.ClassCar, 10, 10, 20, 10, 0.9),
	}
	m := Match(dets, truth, 0.5)
	if m.TP != 1 || m.FP != 1 {
		t.Errorf("Match = %+v", m)
	}
}

func TestMatchEachTruthClaimedOnce(t *testing.T) {
	truth := []core.Object{
		obj(1, core.ClassCar, 0, 0, 10, 10),
		obj(2, core.ClassCar, 30, 0, 10, 10),
	}
	dets := []core.Detection{
		det(core.ClassCar, 0, 0, 10, 10, 0.9),
		det(core.ClassCar, 1, 0, 10, 10, 0.8), // overlaps truth 1 only, already claimed
	}
	m := Match(dets, truth, 0.5)
	if m.TP != 1 || m.FP != 1 || m.FN != 1 {
		t.Errorf("Match = %+v", m)
	}
}

func TestMatchEmptyCases(t *testing.T) {
	// Paper/Glimpse convention: empty-empty frames are perfect.
	if f1 := FrameF1(nil, nil, 0.5); f1 != 1 {
		t.Errorf("empty-empty F1 = %f, want 1", f1)
	}
	if f1 := FrameF1([]core.Detection{det(core.ClassCar, 0, 0, 5, 5, 1)}, nil, 0.5); f1 != 0 {
		t.Errorf("FP-only F1 = %f, want 0", f1)
	}
	if f1 := FrameF1(nil, []core.Object{obj(1, core.ClassCar, 0, 0, 5, 5)}, 0.5); f1 != 0 {
		t.Errorf("FN-only F1 = %f, want 0", f1)
	}
}

func TestMatchDefaultIoU(t *testing.T) {
	truth := []core.Object{obj(1, core.ClassCar, 0, 0, 10, 10)}
	dets := []core.Detection{det(core.ClassCar, 0, 0, 10, 10, 1)}
	if m := Match(dets, truth, 0); m.TP != 1 {
		t.Errorf("zero threshold did not default: %+v", m)
	}
}

func TestStricterIoUReducesTP(t *testing.T) {
	// A detection with IoU ≈ 0.55 passes at threshold 0.5 and fails at 0.6 —
	// the mechanism behind Fig. 11.
	truth := []core.Object{obj(1, core.ClassCar, 0, 0, 20, 10)}
	dets := []core.Detection{det(core.ClassCar, 4.5, 1, 20, 10, 1)}
	iou := dets[0].Box.IoU(truth[0].Box)
	if iou <= 0.5 || iou >= 0.6 {
		t.Fatalf("test fixture IoU = %f, want in (0.5, 0.6)", iou)
	}
	if m := Match(dets, truth, 0.5); m.TP != 1 {
		t.Errorf("IoU 0.5: %+v", m)
	}
	if m := Match(dets, truth, 0.6); m.TP != 0 {
		t.Errorf("IoU 0.6: %+v", m)
	}
}

func TestPrecisionRecallF1Known(t *testing.T) {
	m := MatchResult{TP: 3, FP: 1, FN: 2}
	if p := m.Precision(); math.Abs(p-0.75) > 1e-9 {
		t.Errorf("Precision = %f", p)
	}
	if r := m.Recall(); math.Abs(r-0.6) > 1e-9 {
		t.Errorf("Recall = %f", r)
	}
	want := 2 * 0.75 * 0.6 / (0.75 + 0.6)
	if f := m.F1(); math.Abs(f-want) > 1e-9 {
		t.Errorf("F1 = %f, want %f", f, want)
	}
}

// Property: F1 is always in [0, 1] and equals 1 iff no errors.
func TestF1Properties(t *testing.T) {
	if err := quick.Check(func(tp, fp, fn uint8) bool {
		m := MatchResult{TP: int(tp), FP: int(fp), FN: int(fn)}
		f := m.F1()
		if f < 0 || f > 1 {
			return false
		}
		if fp == 0 && fn == 0 && f != 1 {
			return false
		}
		if tp == 0 && (fp > 0 || fn > 0) && f != 0 {
			return false
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestVideoAccuracy(t *testing.T) {
	f1s := []float64{0.9, 0.8, 0.6, 0.71, 0.3}
	if got := VideoAccuracy(f1s, 0.7); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("VideoAccuracy = %f, want 0.6", got)
	}
	if got := VideoAccuracy(f1s, 0.75); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("VideoAccuracy(0.75) = %f, want 0.4", got)
	}
	if got := VideoAccuracy(nil, 0.7); got != 0 {
		t.Errorf("empty VideoAccuracy = %f", got)
	}
	// Zero alpha defaults to 0.7.
	if got := VideoAccuracy(f1s, 0); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("default-alpha VideoAccuracy = %f", got)
	}
}

func TestVideoAccuracyMonotoneInAlpha(t *testing.T) {
	s := rng.New(3)
	f1s := make([]float64, 200)
	for i := range f1s {
		f1s[i] = s.Float64()
	}
	prev := 1.1
	for alpha := 0.1; alpha <= 0.9; alpha += 0.1 {
		acc := VideoAccuracy(f1s, alpha)
		if acc > prev {
			t.Fatalf("accuracy increased as alpha tightened: %f -> %f", prev, acc)
		}
		prev = acc
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-9 {
		t.Errorf("Mean = %f", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %f", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2.5, 0.5},
		{4, 1},
		{99, 1},
	}
	for _, cse := range cases {
		if got := c.P(cse.x); math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("P(%f) = %f, want %f", cse.x, got, cse.want)
		}
	}
	empty := NewCDF(nil)
	if empty.P(1) != 0 {
		t.Error("empty CDF misbehaves")
	}
}

// Property: CDF is monotone non-decreasing.
func TestCDFMonotone(t *testing.T) {
	s := rng.New(5)
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = s.Range(-10, 10)
	}
	c := NewCDF(samples)
	prev := -0.1
	for x := -12.0; x <= 12; x += 0.25 {
		p := c.P(x)
		if p < prev {
			t.Fatalf("CDF decreased at %f: %f -> %f", x, prev, p)
		}
		prev = p
	}
}

func TestNewCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	_ = NewCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("NewCDF sorted the caller's slice")
	}
}

func BenchmarkMatch10(b *testing.B) {
	s := rng.New(9)
	var truth []core.Object
	var dets []core.Detection
	for i := 0; i < 10; i++ {
		l, tp := s.Range(0, 300), s.Range(0, 160)
		truth = append(truth, obj(i+1, core.ClassCar, l, tp, 20, 12))
		dets = append(dets, det(core.ClassCar, l+s.Range(-2, 2), tp+s.Range(-2, 2), 20, 12, s.Float64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Match(dets, truth, 0.5)
	}
}
