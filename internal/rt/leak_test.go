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
	"adavp/internal/track"
	"adavp/internal/video"
)

// requireBaselineGoroutines polls until the goroutine count returns to at
// most base+tolerance, failing with a full stack dump if it never does.
// Polling with tolerance absorbs runtime and test-harness goroutines that
// come and go on their own schedule.
func requireBaselineGoroutines(t *testing.T, base int) {
	t.Helper()
	const tolerance = 3
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+tolerance {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine count %d never returned to baseline %d (+%d)\n%s",
				runtime.NumGoroutine(), base, tolerance, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rtGoroutines counts the live goroutines this package started, read off
// their "created by" frames — exact where a NumGoroutine delta would also see
// par.Rows workers, supervised detect calls and other tests' stragglers.
func rtGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by adavp/internal/rt.")
}

// goroutineProbe records rtGoroutines from inside the run: wrapped as a
// Detector on every Detect call, as a Tracker on every Step.
type goroutineProbe struct {
	seen []int
	det  *detect.BlobDetector
	track.Tracker
}

func (g *goroutineProbe) Detect(f core.Frame, s core.Setting) []core.Detection {
	g.seen = append(g.seen, rtGoroutines())
	return g.det.Detect(f, s)
}

func (g *goroutineProbe) Step(f core.Frame) ([]core.Detection, float64) {
	g.seen = append(g.seen, rtGoroutines())
	return g.Tracker.Step(f)
}

// TestRunPipelinedDepth1StartsNoGoroutine pins the sequential reference: at
// depth 1 the ring fills its one slot inline, so the run starts no goroutine
// of its own; at depth 2 there is exactly the prefetcher, until it has built
// the last frame.
func TestRunPipelinedDepth1StartsNoGoroutine(t *testing.T) {
	v := pipelineTestVideo("hw", video.KindHighway, 5, 16)
	for depth, want := range map[int]int{1: 0, 2: 1} {
		probe := &goroutineProbe{det: detect.NewBlobDetector()}
		_, err := RunPipelined(context.Background(), v, PipelineConfig{Depth: depth, DetectEvery: 2, TimeScale: 0.001, Detector: probe})
		if err != nil {
			t.Fatal(err)
		}
		if len(probe.seen) != 8 || slices.Max(probe.seen) != want {
			t.Errorf("depth %d: goroutines started by the run at each of 8 detector calls: %v, want at most %d", depth, probe.seen, want)
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
	base := runtime.NumGoroutine()

	// Cancelled mid-run: teardown must not depend on reaching the end of
	// the video.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	_, _ = Run(ctx, v, liveConfig())
	requireBaselineGoroutines(t, base)

	// Completing normally.
	if _, err := Run(context.Background(), v, liveConfig()); err != nil {
		t.Fatal(err)
	}
	requireBaselineGoroutines(t, base)
}

// TestRunPixelRingLeaksNoGoroutines is TestRunPipelinedLeaksNoGoroutines
// for the live schedule: a pixel-mode Run at depth 3 starts a ring
// prefetcher per tracker cycle, and a cancellation at any point — inside a
// cycle or between two — must join it before Run returns.
func TestRunPixelRingLeaksNoGoroutines(t *testing.T) {
	v := pipelineTestVideo("hw", video.KindHighway, 5, 120)
	base := runtime.NumGoroutine()
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
		requireBaselineGoroutines(t, base)
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
	base := runtime.NumGoroutine()

	// Cancelled mid-run, repeatedly: the cancellation window is narrow, so
	// several staggered cancels sweep it.
	for _, after := range []time.Duration{5, 20, 60} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(after*time.Millisecond, cancel)
		res, _ := RunPipelined(ctx, v, PipelineConfig{Depth: 3, DetectEvery: 8, TimeScale: 0.001})
		cancel()
		requireBaselineGoroutines(t, base)
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
	requireBaselineGoroutines(t, base)
	if res.pyramidsFree != res.pyramidsTotal {
		t.Fatalf("clean run: %d of %d slots hold their pyramid", res.pyramidsFree, res.pyramidsTotal)
	}
}
