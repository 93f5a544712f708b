package track

import (
	"math"
	"testing"

	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/geom"
	"adavp/internal/metrics"
	"adavp/internal/video"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9, 9, 9, 1, 9}, 9}, // robust to one outlier
	}
	for _, c := range cases {
		if got := median(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("median(%v) = %f, want %f", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	_ = median(in)
	if in[0] != 1 || in[1] != 2 || in[2] != 3 {
		t.Errorf("median should sort its input in place, got %v", in)
	}
}

// oracleDets converts ground truth into perfect detections.
func oracleDets(truth []core.Object) []core.Detection {
	var d detect.OracleDetector
	return d.Detect(core.Frame{Truth: truth}, core.Setting704)
}

// pixelDecay runs detect-once-track-rest on a rendered video and returns the
// per-step F1 of the tracked output.
func pixelDecay(v *video.Video, start, steps int) []float64 {
	tr := NewPixelTracker()
	ref := v.FrameWithPixels(start)
	tr.Init(ref, oracleDets(ref.Truth))
	out := make([]float64, 0, steps)
	for i := 1; i <= steps; i++ {
		f := v.FrameWithPixels(start + i)
		dets, _ := tr.Step(f)
		out = append(out, metrics.FrameF1(dets, f.Truth, 0.5))
	}
	return out
}

func TestPixelTrackerFollowsSlowVideo(t *testing.T) {
	v := video.GenerateKind("slow", video.KindMeetingRoom, 31, 40)
	f1s := pixelDecay(v, 0, 12)
	if got := metrics.Mean(f1s); got < 0.8 {
		t.Errorf("slow-video tracked F1 = %.3f over 12 frames, want >= 0.8 (%v)", got, f1s)
	}
}

func TestPixelTrackerDecayFastVsSlow(t *testing.T) {
	if testing.Short() {
		t.Skip("pixel tracking is slow")
	}
	// Fig. 2: the fast video's tracking accuracy collapses well before the
	// slow video's.
	fast, slow := video.FastSlowPair(7, 45)
	fastF1 := pixelDecay(fast, 2, 28)
	slowF1 := pixelDecay(slow, 2, 28)
	firstBelow := func(xs []float64, th float64) int {
		for i, x := range xs {
			if x < th {
				return i + 1
			}
		}
		return len(xs) + 1
	}
	fb, sb := firstBelow(fastF1, 0.5), firstBelow(slowF1, 0.5)
	if fb >= sb {
		t.Errorf("fast video F1 dropped below 0.5 at step %d, slow at %d; want fast < slow\nfast: %v\nslow: %v",
			fb, sb, fastF1, slowF1)
	}
}

func TestPixelTrackerTracksActualMotion(t *testing.T) {
	// A single unoccluded object moving steadily: the tracked box must stay
	// within a few pixels of the truth for several frames.
	p := video.ScenarioParams(video.KindAirplanes)
	p.InitialObjects = 1
	p.SpawnPerSec = 0
	p.MaxObjects = 1
	p.WanderStd = 0
	v := video.Generate("one", p, 3, 20)
	if len(v.Truth(0)) != 1 {
		t.Skip("object not visible at frame 0")
	}
	tr := NewPixelTracker()
	ref := v.FrameWithPixels(0)
	if n := tr.Init(ref, oracleDets(ref.Truth)); n == 0 {
		t.Fatal("no features extracted from the object")
	}
	for i := 1; i <= 8; i++ {
		f := v.FrameWithPixels(i)
		dets, _ := tr.Step(f)
		if len(f.Truth) == 0 {
			break
		}
		if len(dets) != 1 {
			t.Fatalf("step %d: %d detections", i, len(dets))
		}
		d := dets[0].Box.Center().Dist(f.Truth[0].Box.Center())
		if d > 4 {
			t.Fatalf("step %d: tracked box center %.1f px from truth", i, d)
		}
	}
}

func TestPixelTrackerVelocitySignal(t *testing.T) {
	if testing.Short() {
		t.Skip("pixel tracking is slow")
	}
	velocityOf := func(v *video.Video) float64 {
		tr := NewPixelTracker()
		ref := v.FrameWithPixels(2)
		tr.Init(ref, oracleDets(ref.Truth))
		var vs []float64
		for i := 3; i < 10; i++ {
			_, vel := tr.Step(v.FrameWithPixels(i))
			if vel > 0 {
				vs = append(vs, vel)
			}
		}
		return metrics.Mean(vs)
	}
	fast, slow := video.FastSlowPair(9, 20)
	fv, sv := velocityOf(fast), velocityOf(slow)
	if fv <= sv {
		t.Errorf("velocity signal does not separate content: fast %.3f vs slow %.3f", fv, sv)
	}
	// Eq. 3 normalizes by the frame gap: the tracking-frame selector skips
	// frames, and the same motion seen across a skipped frame must read as
	// the same px/frame, not twice it.
	stepTo := func(i int) float64 {
		tr := NewPixelTracker()
		ref := slow.FrameWithPixels(2)
		tr.Init(ref, oracleDets(ref.Truth))
		_, vel := tr.Step(slow.FrameWithPixels(i))
		return vel
	}
	if gap1, gap2 := stepTo(3), stepTo(4); gap1 <= 0 || gap2 < 0.6*gap1 || gap2 > 1.5*gap1 {
		t.Errorf("velocity across a skipped frame %.3f px/frame vs %.3f adjacent: not normalized by the frame gap", gap2, gap1)
	}
}

func TestPixelTrackerNoPixels(t *testing.T) {
	tr := NewPixelTracker()
	if n := tr.Init(core.Frame{}, nil); n != 0 {
		t.Errorf("Init without pixels extracted %d features", n)
	}
	dets, vel := tr.Step(core.Frame{Index: 1})
	if len(dets) != 0 || vel != 0 {
		t.Error("Step without pixels should return empty state")
	}
}

func TestPixelTrackerHoldsLostObjects(t *testing.T) {
	// Detections with no trackable features (flat region) freeze in place
	// rather than disappearing.
	v := video.GenerateKind("v", video.KindHighway, 5, 10)
	tr := NewPixelTracker()
	ref := v.FrameWithPixels(0)
	fake := []core.Detection{{Class: core.ClassCar, Box: geom.Rect{Left: 5, Top: 5, W: 4, H: 4}, Score: 1}}
	tr.Init(ref, fake)
	dets, _ := tr.Step(v.FrameWithPixels(1))
	if len(dets) != 1 {
		t.Fatalf("lost object dropped: %d detections", len(dets))
	}
}

func TestModelTrackerDeterministic(t *testing.T) {
	v := video.GenerateKind("v", video.KindHighway, 11, 30)
	run := func() []core.Detection {
		tr := NewModelTracker(42)
		tr.Init(v.Frame(0), oracleDets(v.Truth(0)))
		var last []core.Detection
		for i := 1; i < 15; i++ {
			last, _ = tr.Step(v.Frame(i))
		}
		return last
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic model tracker")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic model tracker")
		}
	}
}

func TestModelTrackerNewObjectsInvisible(t *testing.T) {
	v := video.GenerateKind("v", video.KindHighway, 13, 120)
	tr := NewModelTracker(1)
	tr.Init(v.Frame(0), oracleDets(v.Truth(0)))
	// After many frames on a highway, new cars appear that the tracker
	// cannot know about: false negatives must accumulate.
	totalFN := 0
	for i := 1; i < 90; i++ {
		dets, _ := tr.Step(v.Frame(i))
		if i >= 45 {
			totalFN += metrics.Match(dets, v.Truth(i), 0.5).FN
		}
	}
	if totalFN == 0 {
		t.Error("no false negatives over highway frames 45-89; new objects should be missed")
	}
}

func TestModelTrackerDriftGrowsWithTime(t *testing.T) {
	v := video.GenerateKind("v", video.KindHighway, 15, 60)
	tr := NewModelTracker(3)
	ref := v.Frame(4)
	tr.Init(ref, oracleDets(ref.Truth))
	var early, late []float64
	for i := 5; i < 40; i++ {
		dets, _ := tr.Step(v.Frame(i))
		f1 := metrics.FrameF1(dets, v.Truth(i), 0.5)
		switch {
		case i <= 8:
			early = append(early, f1)
		case i >= 30:
			late = append(late, f1)
		}
	}
	if metrics.Mean(late) >= metrics.Mean(early) {
		t.Errorf("highway tracking did not degrade: F1 %.3f (frames 5-8) -> %.3f (frames 30+)",
			metrics.Mean(early), metrics.Mean(late))
	}
}

func TestModelTrackerVelocityTracksChangeRate(t *testing.T) {
	meanVel := func(k video.Kind) float64 {
		v := video.GenerateKind("v", k, 17, 40)
		tr := NewModelTracker(5)
		tr.Init(v.Frame(0), oracleDets(v.Truth(0)))
		var vs []float64
		for i := 1; i < 30; i++ {
			_, vel := tr.Step(v.Frame(i))
			vs = append(vs, vel)
		}
		return metrics.Mean(vs)
	}
	if f, s := meanVel(video.KindRacetrack), meanVel(video.KindMeetingRoom); f <= s*2 {
		t.Errorf("velocity does not separate scenarios: racetrack %.3f vs meeting %.3f", f, s)
	}
}

func TestModelTrackerFalsePositivesFrozen(t *testing.T) {
	v := video.GenerateKind("v", video.KindHighway, 19, 10)
	tr := NewModelTracker(7)
	fp := core.Detection{Class: core.ClassDog, Box: geom.Rect{Left: 50, Top: 50, W: 10, H: 10}, Score: 0.3}
	tr.Init(v.Frame(0), append(oracleDets(v.Truth(0)), fp))
	dets, _ := tr.Step(v.Frame(1))
	found := false
	for _, d := range dets {
		if d.Class == core.ClassDog {
			found = true
			if d.Box != fp.Box {
				t.Errorf("false positive moved: %v", d.Box)
			}
		}
	}
	if !found {
		t.Error("false positive dropped by tracker")
	}
}

func TestModelTrackerBoundsClipping(t *testing.T) {
	v := video.GenerateKind("v", video.KindHighway, 21, 40)
	tr := NewModelTracker(9)
	tr.SetBounds(v.Bounds())
	tr.Init(v.Frame(0), oracleDets(v.Truth(0)))
	for i := 1; i < 40; i++ {
		dets, _ := tr.Step(v.Frame(i))
		for _, d := range dets {
			if d.Box.Intersect(v.Bounds()).Area() < d.Box.Area()-1e-6 {
				t.Fatalf("frame %d: box %v escapes bounds", i, d.Box)
			}
		}
	}
}

// TestModelTrackerMatchesPixelDecay fits check: the surrogate's decay curve
// must resemble the pixel tracker's on the same video (mean absolute F1 gap
// below 0.2 over the first 15 tracked frames).
func TestModelTrackerMatchesPixelDecay(t *testing.T) {
	if testing.Short() {
		t.Skip("pixel tracking is slow")
	}
	for _, k := range []video.Kind{video.KindHighway, video.KindMeetingRoom} {
		v := video.GenerateKind("v", k, 23, 25)
		pix := pixelDecay(v, 2, 15)
		tr := NewModelTracker(11)
		ref := v.Frame(2)
		tr.Init(ref, oracleDets(ref.Truth))
		var gap float64
		for i := 1; i <= 15; i++ {
			dets, _ := tr.Step(v.Frame(2 + i))
			mf1 := metrics.FrameF1(dets, v.Truth(2+i), 0.5)
			gap += math.Abs(mf1 - pix[i-1])
		}
		gap /= 15
		if gap > 0.2 {
			t.Errorf("%v: mean |model - pixel| F1 gap = %.3f, want <= 0.2", k, gap)
		}
	}
}

func BenchmarkPixelTrackerStep(b *testing.B) {
	v := video.GenerateKind("v", video.KindHighway, 1, 60)
	tr := NewPixelTracker()
	ref := v.FrameWithPixels(0)
	tr.Init(ref, oracleDets(ref.Truth))
	frames := make([]core.Frame, 10)
	for i := range frames {
		frames[i] = v.FrameWithPixels(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tr.Step(frames[i%10])
	}
}

func BenchmarkModelTrackerStep(b *testing.B) {
	v := video.GenerateKind("v", video.KindHighway, 1, 60)
	tr := NewModelTracker(1)
	tr.Init(v.Frame(0), oracleDets(v.Truth(0)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tr.Step(v.Frame(1 + i%50))
	}
}

func TestPixelTrackerForwardBackwardOption(t *testing.T) {
	v := video.GenerateKind("v", video.KindHighway, 41, 12)
	run := func(fb bool) float64 {
		tr := NewPixelTracker()
		tr.ForwardBackward = fb
		ref := v.FrameWithPixels(0)
		tr.Init(ref, oracleDets(ref.Truth))
		var f1s []float64
		for i := 1; i < 8; i++ {
			f := v.FrameWithPixels(i)
			dets, _ := tr.Step(f)
			f1s = append(f1s, metrics.FrameF1(dets, f.Truth, 0.5))
		}
		return metrics.Mean(f1s)
	}
	plain := run(false)
	verified := run(true)
	// FB verification must not collapse tracking quality on clean content;
	// it prunes features, so a modest dip is acceptable.
	if verified < plain-0.25 {
		t.Errorf("FB tracking F1 %.3f far below plain %.3f", verified, plain)
	}
}
