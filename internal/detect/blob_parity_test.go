package detect

import (
	"math"
	"testing"

	"adavp/internal/core"
	"adavp/internal/imgproc"
	"adavp/internal/par"
	"adavp/internal/video"
)

// TestBlobDetectorParityAcrossWorkerCounts asserts the parallel threshold
// pass plus pooled scratch produce detections identical to the serial path
// at every worker count and every model setting, over real rendered frames.
func TestBlobDetectorParityAcrossWorkerCounts(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	v := video.GenerateKind("blob-parity", video.KindIntersection, 5, 30)
	d := NewBlobDetector()
	settings := []core.Setting{core.Setting320, core.Setting512, core.Setting704}
	frames := []int{0, 11, 29}

	type key struct {
		setting core.Setting
		frame   int
	}
	par.SetWorkers(1)
	refs := make(map[key][]core.Detection)
	for _, s := range settings {
		for _, fi := range frames {
			refs[key{s, fi}] = d.Detect(v.FrameWithPixels(fi), s)
		}
	}
	for _, workers := range []int{2, 3, 4} {
		par.SetWorkers(workers)
		for _, s := range settings {
			for _, fi := range frames {
				got := d.Detect(v.FrameWithPixels(fi), s)
				ref := refs[key{s, fi}]
				if len(got) != len(ref) {
					t.Fatalf("workers=%d setting=%v frame=%d: %d detections vs %d",
						workers, s, fi, len(got), len(ref))
				}
				for i := range ref {
					if got[i].Class != ref[i].Class ||
						math.Float64bits(got[i].Score) != math.Float64bits(ref[i].Score) ||
						got[i].Box != ref[i].Box {
						t.Fatalf("workers=%d setting=%v frame=%d det %d: %+v vs %+v",
							workers, s, fi, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestBlobDetectorPreparedParity pins the prepared-input contract bench/'s
// layer walk relies on when it times the resize apart from the blob pass:
// DetectPrepared over a PrepareInput raster is bitwise Detect — and so is
// every degenerate prepared argument (nil, wrong-setting raster), because the
// fallback resizes inline through the very same kernel.
func TestBlobDetectorPreparedParity(t *testing.T) {
	v := video.GenerateKind("blob-prep", video.KindCityStreet, 7, 20)
	d := NewBlobDetector()
	var prep imgproc.Gray
	same := func(a, b []core.Detection) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Class != b[i].Class || a[i].Box != b[i].Box ||
				math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
				return false
			}
		}
		return true
	}
	for _, s := range []core.Setting{core.Setting320, core.Setting512, core.Setting608} {
		for _, fi := range []int{0, 9, 19} {
			f := v.FrameWithPixels(fi)
			want := d.Detect(f, s)
			if !d.PrepareInput(f, s, &prep) {
				t.Fatalf("setting=%v frame=%d: PrepareInput refused a resizable frame", s, fi)
			}
			if got := d.DetectPrepared(f, s, &prep); !same(got, want) {
				t.Fatalf("setting=%v frame=%d: prepared path diverged: %+v vs %+v", s, fi, got, want)
			}
			if got := d.DetectPrepared(f, s, nil); !same(got, want) {
				t.Fatalf("setting=%v frame=%d: nil-prepared fallback diverged", s, fi)
			}
			// A raster prepared for a different setting is mis-sized for this
			// one: the fallback must ignore it, not consume it.
			var stale imgproc.Gray
			d.PrepareInput(f, core.Setting416, &stale)
			if got := d.DetectPrepared(f, s, &stale); !same(got, want) {
				t.Fatalf("setting=%v frame=%d: stale-prepared fallback diverged", s, fi)
			}
		}
	}
	// At the reference input size there is nothing to resize: PrepareInput
	// reports no raster, and the prepared path reads the native frame.
	f := v.FrameWithPixels(3)
	if f.Pixels.W == 704 {
		if d.PrepareInput(f, core.Setting704, &prep) {
			t.Fatal("PrepareInput produced a raster at native resolution")
		}
		if got := d.DetectPrepared(f, core.Setting704, nil); !same(got, d.Detect(f, core.Setting704)) {
			t.Fatal("native-resolution prepared path diverged")
		}
	}
}

// TestBlobDetectorConcurrentCalls races Detect calls on one shared detector,
// the situation the supervised live pipeline produces when a
// watchdog-abandoned call is still running as its retry starts. Run under
// -race (make race includes this package).
func TestBlobDetectorConcurrentCalls(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	par.SetWorkers(2)
	v := video.GenerateKind("blob-conc", video.KindHighway, 9, 8)
	d := NewBlobDetector()
	frame := v.FrameWithPixels(3)
	want := d.Detect(frame, core.Setting416)
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func() {
			okAll := true
			for i := 0; i < 5; i++ {
				got := d.Detect(frame, core.Setting416)
				if len(got) != len(want) {
					okAll = false
				}
			}
			done <- okAll
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent Detect returned differing detection counts")
		}
	}
}
