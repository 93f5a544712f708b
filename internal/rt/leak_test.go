package rt

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/leaktest"
	"adavp/internal/track"
	"adavp/internal/video"
)

// rtGoroutines counts the live goroutines this package started, read off
// their "created by" frames — exact where a NumGoroutine delta would also see
// par.Rows workers, supervised detect calls and other tests' stragglers.
func rtGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by adavp/internal/rt.")
}

// goroutineProbe records rtGoroutines from inside the run, wrapped as a
// Tracker on every Step.
type goroutineProbe struct {
	seen []int
	track.Tracker
}

func (g *goroutineProbe) Step(f core.Frame) ([]core.Detection, float64) {
	g.seen = append(g.seen, rtGoroutines())
	return g.Tracker.Step(f)
}

// TestRunPipelinedDepth1StartsNoGoroutine pins the sequential reference on
// the ring RunPipelined runs on: at depth 1 it fills its one slot inline, so a
// pass starts no goroutine of its own; at depth 2 every build runs on exactly
// one, the prefetcher.
func TestRunPipelinedDepth1StartsNoGoroutine(t *testing.T) {
	const n = 8
	for depth, want := range map[int]int{1: 0, 2: 1} {
		var seen []int
		r := newStagedRing(depth, func(int, *pipeSlot) { seen = append(seen, rtGoroutines()) })
		r.arm(context.Background(), n)
		for i := 0; i < n; i++ {
			slot, ok := r.next(i)
			if !ok {
				t.Fatalf("depth %d: frame %d never built", depth, i)
			}
			r.release(slot, slot.take())
		}
		r.audit() // joins the prefetcher: seen is ours again
		if len(seen) != n || slices.Min(seen) != want || slices.Max(seen) != want {
			t.Errorf("depth %d: goroutines started by the ring at each of %d builds: %v, want %d", depth, n, seen, want)
		}
	}
}

// TestRunHoldsTwoGoroutines pins the live schedule's thread count: a
// model-mode Run is the detector thread and the tracker thread — the camera
// is a clock.
func TestRunHoldsTwoGoroutines(t *testing.T) {
	v := video.GenerateKind("hw", video.KindHighway, 5, 300)
	probe := &goroutineProbe{}
	cfg := liveConfig()
	cfg.NewTracker = func(seed uint64) track.Tracker {
		mt := track.NewModelTracker(seed)
		mt.SetBounds(v.Bounds())
		probe.Tracker = mt
		return probe
	}
	if _, err := Run(context.Background(), v, cfg); err != nil {
		t.Fatal(err)
	}
	// The detector thread exits with the last frame; the tracker may still
	// be finishing the final cycle.
	if len(probe.seen) == 0 || probe.seen[0] != 2 || slices.Max(probe.seen) != 2 {
		t.Errorf("goroutines started by the run at each tracker step: %v, want 2 (1 at the tail)", probe.seen)
	}
}

// TestRunLeaksNoGoroutines asserts that rt.Run tears down every goroutine it
// starts — detector loop, tracker loop and supervised call goroutines — both
// when cancelled mid-run and when completing normally.
func TestRunLeaksNoGoroutines(t *testing.T) {
	v := video.GenerateKind("hw", video.KindHighway, 5, 300)
	base := leaktest.Count()

	// Cancelled mid-run: teardown must not depend on reaching the end of
	// the video.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	_, _ = Run(ctx, v, liveConfig())
	leaktest.Check(t, base)

	// Completing normally.
	if _, err := Run(context.Background(), v, liveConfig()); err != nil {
		t.Fatal(err)
	}
	leaktest.Check(t, base)
}

// TestRunPixelRingLeaksNoGoroutines is TestRunPipelinedLeaksNoGoroutines
// for the live schedule: a pixel-mode Run at depth 3 starts a ring
// prefetcher per tracker cycle, and a cancellation at any point — inside a
// cycle or between two — must join it before Run returns.
func TestRunPixelRingLeaksNoGoroutines(t *testing.T) {
	v := pipelineTestVideo("hw", video.KindHighway, 5, 120)
	base := leaktest.Count()
	cfg := Config{
		TimeScale:     0.01,
		Seed:          1,
		PixelMode:     true,
		Detector:      detect.NewBlobDetector(),
		NewTracker:    func(uint64) track.Tracker { return track.NewPixelTracker() },
		PipelineDepth: 3,
	}
	for _, after := range []time.Duration{5, 20, 60} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(after*time.Millisecond, cancel)
		_, _ = Run(ctx, v, cfg)
		cancel()
		leaktest.Check(t, base)
	}
}

// TestRunPipelinedLeaksNoGoroutines is the satellite regression for the
// staged pipeline's shutdown: the prefetcher goroutine must exit on every
// cancellation path — including mid-run cancellation at depth>1 — and the
// ownership audit must find every slot still holding its pyramid
// (pyramidsFree == pyramidsTotal). Run under -race via make race: a racy
// teardown fails here even when the count recovers.
func TestRunPipelinedLeaksNoGoroutines(t *testing.T) {
	v := pipelineTestVideo("hw", video.KindHighway, 5, 120)
	base := leaktest.Count()

	// Cancelled mid-run, repeatedly: the cancellation window is narrow, so
	// several staggered cancels sweep it.
	for _, after := range []time.Duration{5, 20, 60} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(after*time.Millisecond, cancel)
		res, _ := RunPipelined(ctx, v, PipelineConfig{Depth: 3, DetectEvery: 8, TimeScale: 0.001})
		cancel()
		leaktest.Check(t, base)
		if res.pyramidsTotal != 3 || res.pyramidsFree != res.pyramidsTotal {
			t.Fatalf("cancel@%vms: %d of %d slots hold their pyramid — cancellation dropped pyramids",
				after, res.pyramidsFree, res.pyramidsTotal)
		}
	}

	// Completing normally.
	res, err := RunPipelined(context.Background(), v, PipelineConfig{Depth: 3, DetectEvery: 8, TimeScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	leaktest.Check(t, base)
	if res.pyramidsFree != res.pyramidsTotal {
		t.Fatalf("clean run: %d of %d slots hold their pyramid", res.pyramidsFree, res.pyramidsTotal)
	}
}
