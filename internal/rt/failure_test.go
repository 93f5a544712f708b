package rt

import (
	"context"
	"math"
	"testing"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/fault"
	"adavp/internal/geom"
	"adavp/internal/guard"
	"adavp/internal/track"
	"adavp/internal/video"
)

// Failure-injection tests for the live pipeline, the goroutine counterpart of
// internal/sim/failure_test.go: the run must stay well-formed (one output per
// frame, bounded F1, no deadlock) when components misbehave, and the
// supervisor must account for hangs and panics instead of letting them kill
// or stall the run. All of these execute under -race in CI.

// emptyDetector never detects anything.
type emptyDetector struct{}

func (emptyDetector) Detect(core.Frame, core.Setting) []core.Detection { return nil }

// garbageDetector returns malformed detections: negative sizes, NaN
// coordinates, invalid classes, out-of-frame boxes.
type garbageDetector struct{}

func (garbageDetector) Detect(core.Frame, core.Setting) []core.Detection {
	return []core.Detection{
		{Class: core.Class(99), Box: geom.Rect{Left: -50, Top: -50, W: -10, H: -10}, Score: 2},
		{Class: core.ClassCar, Box: geom.Rect{Left: math.NaN(), Top: 10, W: 20, H: 10}, Score: 0.5},
		{Class: core.ClassCar, Box: geom.Rect{Left: 1e9, Top: 1e9, W: 5, H: 5}, Score: -1},
	}
}

// flakyDetector fails (returns nothing) on every other invocation and echoes
// ground truth otherwise. Supervised calls never overlap unless the watchdog
// abandons one, and this detector never blocks, so the bare counter is safe
// under -race.
type flakyDetector struct {
	calls int
}

func (d *flakyDetector) Detect(f core.Frame, s core.Setting) []core.Detection {
	d.calls++
	if d.calls%2 == 0 {
		return nil
	}
	out := make([]core.Detection, 0, len(f.Truth))
	for _, o := range f.Truth {
		out = append(out, core.Detection{Class: o.Class, Box: o.Box, Score: 0.9, TrackID: o.ID})
	}
	return out
}

// checkWellFormed asserts the structural invariants every run must keep.
func checkWellFormed(t *testing.T, r *Result, frames int) {
	t.Helper()
	if len(r.Outputs) != frames {
		t.Fatalf("%d outputs for %d frames", len(r.Outputs), frames)
	}
	for i, out := range r.Outputs {
		if out.FrameIndex != i {
			t.Fatalf("output %d has frame index %d", i, out.FrameIndex)
		}
		for _, d := range out.Detections {
			if math.IsNaN(d.Box.Left) || math.IsInf(d.Box.Left, 0) ||
				d.Box.W <= 0 || d.Box.H <= 0 || d.Score < 0 || d.Score > 1 {
				t.Fatalf("frame %d: malformed detection %+v escaped sanitization", i, d)
			}
		}
	}
	for i, f1 := range r.FrameF1 {
		if math.IsNaN(f1) || f1 < 0 || f1 > 1 {
			t.Fatalf("frame %d F1 = %f", i, f1)
		}
	}
}

func TestLiveSurvivesEmptyDetector(t *testing.T) {
	// 600 frames last ~200 ms of wall time, about 45 detection cycles on a
	// 2-vCPU box with other packages' tests on the cores: several times the
	// guard.EmptyBurst cycles a burst needs.
	v := video.GenerateKind("fi", video.KindHighway, 5, 600)
	cfg := liveConfig()
	cfg.Detector = emptyDetector{}
	r, err := Run(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, r, v.NumFrames())
	if r.Accuracy > 0.6 {
		t.Errorf("accuracy %.2f with a blind detector", r.Accuracy)
	}
	if r.Cycles < guard.EmptyBurst {
		t.Fatalf("only %d detection cycles completed; a burst needs %d", r.Cycles, guard.EmptyBurst)
	}
	// A permanently empty detector is a fault signature: the empty-burst
	// detector must have noticed.
	if r.Faults.EmptyBursts == 0 {
		t.Error("no empty burst recorded for an always-empty detector")
	}
}

func TestLiveSurvivesGarbageDetector(t *testing.T) {
	v := video.GenerateKind("fi", video.KindHighway, 5, 200)
	cfg := liveConfig()
	cfg.Detector = garbageDetector{}
	r, err := Run(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, r, v.NumFrames())
	if r.MeanF1 > 0.5 {
		t.Errorf("garbage detections scored %.2f mean F1", r.MeanF1)
	}
}

func TestLiveSurvivesFlakyDetector(t *testing.T) {
	v := video.GenerateKind("fi", video.KindHighway, 5, 200)
	cfg := liveConfig()
	cfg.Detector = &flakyDetector{}
	r, err := Run(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, r, v.NumFrames())
	if r.Accuracy <= 0 {
		t.Error("flaky detector zeroed accuracy entirely")
	}
}

// poisonTracker reports NaN or +Inf velocities; boxes pass through unchanged.
type poisonTracker struct {
	dets  []core.Detection
	steps int
	inf   bool
}

func (t *poisonTracker) Init(_ core.Frame, dets []core.Detection) int {
	t.dets = dets
	return len(dets)
}

func (t *poisonTracker) Step(core.Frame) ([]core.Detection, float64) {
	t.steps++
	if t.inf {
		return t.dets, math.Inf(1)
	}
	return t.dets, math.NaN()
}

func TestLiveSurvivesPoisonedVelocity(t *testing.T) {
	// Regression: +Inf velocity passed the old `vel > 0` filter and reached
	// the adaptation model; NaN failed every threshold comparison and pinned
	// the setting. Both must now be rejected before the velocity cell.
	for _, inf := range []bool{false, true} {
		name := "nan"
		if inf {
			name = "inf"
		}
		t.Run(name, func(t *testing.T) {
			v := video.GenerateKind("fi", video.KindHighway, 7, 200)
			cfg := liveConfig()
			cfg.Adaptation = adapt.DefaultModel()
			cfg.Setting = core.Setting608
			cfg.NewTracker = func(uint64) track.Tracker { return &poisonTracker{inf: inf} }
			r, err := Run(context.Background(), v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkWellFormed(t, r, v.NumFrames())
			for i, out := range r.Outputs {
				if out.Source != core.SourceNone && !out.Setting.Valid() {
					t.Fatalf("frame %d ran at invalid setting after poisoned velocity", i)
				}
			}
			// No valid velocity ever reached the model, so AdaVP must not
			// have switched away from its initial setting.
			if r.Switches != 0 {
				t.Errorf("poisoned velocities caused %d setting switches", r.Switches)
			}
		})
	}
}

func TestLiveOneFrameVideo(t *testing.T) {
	v := video.GenerateKind("one", video.KindHighway, 9, 1)
	r, err := Run(context.Background(), v, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outputs) != 1 {
		t.Fatalf("%d outputs", len(r.Outputs))
	}
}

func TestLiveVeryShortVideos(t *testing.T) {
	for frames := 1; frames <= 8; frames++ {
		v := video.GenerateKind("short", video.KindCityStreet, uint64(frames), frames)
		r, err := Run(context.Background(), v, liveConfig())
		if err != nil {
			t.Fatalf("%d frames: %v", frames, err)
		}
		if len(r.Outputs) != frames {
			t.Fatalf("%d frames: %d outputs", frames, len(r.Outputs))
		}
	}
}

// faultCampaignConfig builds a live config with an injected hang/panic
// campaign and a watchdog tight enough to catch hangs quickly in a test.
// Hangs are kept short: a tracker hang stalls the (deliberately unsupervised)
// tracker thread for its full duration, which backpressures the detector
// through the work channel — realistic, but it bounds how many detection
// cycles fit in the camera window.
func faultCampaignConfig(rate float64, kinds []fault.Kind) Config {
	cfg := liveConfig()
	cfg.Fault = &fault.Profile{
		Rate:  rate,
		Kinds: kinds,
		Hang:  30 * time.Millisecond,
		Spike: 5 * time.Millisecond,
		Seed:  99,
	}
	cfg.Guard = guard.Config{
		MinDeadline: 12 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	}
	return cfg
}

// TestLiveSurvivesHangAndPanicFaults is the acceptance scenario: a hang/panic
// campaign must complete without crash or deadlock, emit one output per
// frame, and report nonzero fault and recovery counters. The schedule is a
// pure function of the profile seed, so which call indices fault is fixed;
// only the number of cycles varies with scheduling, and the video is long
// enough that the detector always reaches the faulted indices.
func TestLiveSurvivesHangAndPanicFaults(t *testing.T) {
	v := video.GenerateKind("fc", video.KindHighway, 5, 1500)
	cfg := faultCampaignConfig(0.20, []fault.Kind{fault.KindHang, fault.KindPanic})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	r, err := Run(ctx, v, cfg)
	if err != nil {
		t.Fatalf("fault campaign crashed the run: %v", err)
	}
	checkWellFormed(t, r, v.NumFrames())
	injected := 0
	for _, n := range r.Injected {
		injected += n
	}
	if injected == 0 {
		t.Fatal("10% campaign injected nothing; raise frames or check the schedule")
	}
	if r.Faults.Timeouts+r.Faults.Panics == 0 {
		t.Errorf("faults injected (%v) but supervisor observed none: %+v", r.Injected, r.Faults)
	}
	if r.Faults.Retries == 0 {
		t.Errorf("hard faults observed but no retries recorded: %+v", r.Faults)
	}
	if r.Faults.Recoveries == 0 {
		t.Errorf("pipeline never recovered to healthy: %+v (final health %v)", r.Faults, r.Health)
	}
	if len(r.Events) == 0 {
		t.Error("no fault events recorded")
	}
}

// TestLiveTenPercentHangPanicCampaign pins the headline acceptance numbers:
// at a 10% hang/panic rate the run completes without crash or deadlock under
// -race, emits one output per frame, and the supervisor observes faults.
// (The 20% test above additionally asserts retries and recoveries, which
// need a denser schedule to be deterministic.)
func TestLiveTenPercentHangPanicCampaign(t *testing.T) {
	v := video.GenerateKind("fc", video.KindHighway, 5, 1500)
	cfg := faultCampaignConfig(0.10, []fault.Kind{fault.KindHang, fault.KindPanic})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	r, err := Run(ctx, v, cfg)
	if err != nil {
		t.Fatalf("10%% campaign crashed the run: %v", err)
	}
	checkWellFormed(t, r, v.NumFrames())
	if len(r.Injected) == 0 {
		t.Fatal("10% campaign injected nothing")
	}
	if r.Faults.Timeouts+r.Faults.Panics+r.Faults.EmptyBursts == 0 {
		t.Errorf("faults injected (%v) but supervisor counters all zero: %+v", r.Injected, r.Faults)
	}
}

// TestLiveDataFaultCampaign runs the data-corruption kinds; outputs must stay
// sanitized and the run well-formed.
func TestLiveDataFaultCampaign(t *testing.T) {
	v := video.GenerateKind("fc", video.KindHighway, 5, 250)
	cfg := faultCampaignConfig(0.25, []fault.Kind{fault.KindEmpty, fault.KindGarbage, fault.KindNaN})
	cfg.Adaptation = adapt.DefaultModel()
	r, err := Run(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, r, v.NumFrames())
	if len(r.Injected) == 0 {
		t.Fatal("25% campaign injected nothing")
	}
	for i, out := range r.Outputs {
		if out.Source != core.SourceNone && !out.Setting.Valid() {
			t.Fatalf("frame %d at invalid setting under NaN/garbage faults", i)
		}
	}
}

// TestLiveFaultFreeCountersZero pins the acceptance criterion that the
// supervision layer is invisible on clean runs: no faults, no retries, no
// downgrades, healthy at the end.
func TestLiveFaultFreeCountersZero(t *testing.T) {
	v := video.GenerateKind("hw", video.KindHighway, 5, 200)
	r, err := Run(context.Background(), v, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Faults != (guard.Stats{}) {
		t.Errorf("fault-free run has nonzero counters: %+v", r.Faults)
	}
	if r.Health != guard.Healthy {
		t.Errorf("fault-free run ended %v", r.Health)
	}
	if r.Injected != nil || len(r.Events) != 0 {
		t.Errorf("fault-free run logged events: %v %v", r.Injected, r.Events)
	}
	if r.Partial {
		t.Error("complete run marked partial")
	}
}

// TestCancellationReturnsPartialResult pins satellite (a): a cancelled run
// returns the frames that completed, marked Partial, alongside the error.
func TestCancellationReturnsPartialResult(t *testing.T) {
	v := video.GenerateKind("hw", video.KindHighway, 5, 3000)
	cfg := liveConfig()
	cfg.TimeScale = 0.05 // slow enough that cancellation lands mid-run
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	r, err := Run(ctx, v, cfg)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if r == nil {
		t.Fatal("cancelled run returned nil Result")
	}
	if !r.Partial {
		t.Error("cancelled run not marked partial")
	}
	if len(r.Outputs) != v.NumFrames() {
		t.Fatalf("partial result has %d output slots for %d frames", len(r.Outputs), v.NumFrames())
	}
	// finish() hold-fills the tail, so every frame has an output; the frames
	// the pipeline actually processed are the detector/tracker-sourced ones.
	fresh, lastFresh := 0, -1
	for i, out := range r.Outputs {
		if out.Source == core.SourceDetector || out.Source == core.SourceTracker {
			fresh++
			lastFresh = i
		}
	}
	if fresh == 0 {
		t.Error("partial result contains no completed frames")
	}
	if lastFresh >= v.NumFrames()-1 {
		t.Error("cancellation did not actually cut the run short")
	}
}

// hangingDetector blocks until released; used to drive the watchdog directly.
type hangingDetector struct {
	release chan struct{}
}

func (d *hangingDetector) Detect(core.Frame, core.Setting) []core.Detection {
	<-d.release
	return nil
}

func TestWatchdogAbandonsHungDetector(t *testing.T) {
	v := video.GenerateKind("hang", video.KindHighway, 3, 60)
	release := make(chan struct{})
	defer close(release)
	cfg := liveConfig()
	cfg.Detector = &hangingDetector{release: release}
	cfg.Guard = guard.Config{
		MinDeadline: 10 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r, err := Run(ctx, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, r, v.NumFrames())
	if r.Faults.Timeouts == 0 || r.Faults.Abandoned == 0 {
		t.Errorf("permanently hung detector produced no timeouts: %+v", r.Faults)
	}
	if r.Health == guard.Healthy {
		t.Error("run with a dead detector ended healthy")
	}
}

// panicDetector panics on every call.
type panicDetector struct{}

func (panicDetector) Detect(core.Frame, core.Setting) []core.Detection {
	panic("rt test: injected detector panic")
}

func TestSupervisorRecoversDetectorPanics(t *testing.T) {
	v := video.GenerateKind("pan", video.KindHighway, 3, 80)
	cfg := liveConfig()
	cfg.Detector = panicDetector{}
	cfg.Guard = guard.Config{
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
	r, err := Run(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, r, v.NumFrames())
	if r.Faults.Panics == 0 {
		t.Errorf("always-panicking detector recorded no panics: %+v", r.Faults)
	}
	// Repeated hard faults must have escalated to smaller settings.
	if r.Faults.Downgrades == 0 {
		t.Errorf("no downgrades after persistent panics: %+v", r.Faults)
	}
}

// panicTracker panics on Step.
type panicTracker struct{ dets []core.Detection }

func (t *panicTracker) Init(_ core.Frame, dets []core.Detection) int {
	t.dets = dets
	return len(dets)
}

func (t *panicTracker) Step(core.Frame) ([]core.Detection, float64) {
	panic("rt test: injected tracker panic")
}

func TestSupervisorRecoversTrackerPanics(t *testing.T) {
	v := video.GenerateKind("pan", video.KindHighway, 3, 150)
	cfg := liveConfig()
	cfg.NewTracker = func(uint64) track.Tracker { return &panicTracker{} }
	r, err := Run(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, r, v.NumFrames())
	if r.Faults.Panics == 0 {
		t.Errorf("panicking tracker recorded no panics: %+v", r.Faults)
	}
}
