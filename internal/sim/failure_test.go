package sim

import (
	"math"
	"strings"
	"testing"

	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/fault"
	"adavp/internal/geom"
	"adavp/internal/track"
	"adavp/internal/video"
)

// Failure-injection tests: the pipeline must stay well-formed (one output
// per frame, bounded scores, no panics) when its components misbehave —
// empty results, garbage boxes, NaNs, detectors that fail intermittently.

// emptyDetector never detects anything.
type emptyDetector struct{}

func (emptyDetector) Detect(core.Frame, core.Setting) []core.Detection { return nil }

// garbageDetector returns malformed detections: negative sizes, NaN
// coordinates, invalid classes, out-of-frame boxes.
type garbageDetector struct{}

func (garbageDetector) Detect(f core.Frame, _ core.Setting) []core.Detection {
	return []core.Detection{
		{Class: core.Class(99), Box: geom.Rect{Left: -50, Top: -50, W: -10, H: -10}, Score: 2},
		{Class: core.ClassCar, Box: geom.Rect{Left: math.NaN(), Top: 10, W: 20, H: 10}, Score: 0.5},
		{Class: core.ClassCar, Box: geom.Rect{Left: 1e9, Top: 1e9, W: 5, H: 5}, Score: -1},
	}
}

// flakyDetector fails (returns nothing) on every other invocation.
type flakyDetector struct {
	inner detect.Detector
	calls int
}

func (d *flakyDetector) Detect(f core.Frame, s core.Setting) []core.Detection {
	d.calls++
	if d.calls%2 == 0 {
		return nil
	}
	return d.inner.Detect(f, s)
}

func runWithDetector(t *testing.T, d detect.Detector, policy Policy) *Result {
	t.Helper()
	v := video.GenerateKind("fi", video.KindHighway, 5, 300)
	r, err := Run(v, Config{Policy: policy, Detector: d, Seed: 1})
	if err != nil {
		t.Fatalf("%v with injected detector: %v", policy, err)
	}
	if len(r.Run.Outputs) != v.NumFrames() {
		t.Fatalf("%v: %d outputs", policy, len(r.Run.Outputs))
	}
	for i, f1 := range r.Run.FrameF1 {
		if math.IsNaN(f1) || f1 < 0 || f1 > 1 {
			t.Fatalf("%v: frame %d F1 = %f", policy, i, f1)
		}
	}
	return r
}

func TestPipelineSurvivesEmptyDetector(t *testing.T) {
	for _, p := range allPolicies() {
		r := runWithDetector(t, emptyDetector{}, p)
		// With no detections ever, accuracy reflects only frames with empty
		// ground truth.
		if r.Accuracy > 0.6 {
			t.Errorf("%v: accuracy %.2f with a blind detector", p, r.Accuracy)
		}
	}
}

func TestPipelineSurvivesGarbageDetector(t *testing.T) {
	for _, p := range allPolicies() {
		r := runWithDetector(t, garbageDetector{}, p)
		if r.MeanF1 > 0.5 {
			t.Errorf("%v: garbage detections scored %.2f mean F1", p, r.MeanF1)
		}
	}
}

func TestPipelineSurvivesFlakyDetector(t *testing.T) {
	v := video.GenerateKind("fi", video.KindHighway, 5, 300)
	inner := detect.NewSimDetector(1, v.Params.W, v.Params.H)
	r := runWithDetector(t, &flakyDetector{inner: inner}, PolicyAdaVP)
	// Half the detections vanish; the pipeline keeps going and still scores
	// on the cycles that worked.
	if r.Accuracy <= 0 {
		t.Error("flaky detector zeroed accuracy entirely")
	}
}

// nanTracker reports NaN or +Inf velocities and drops boxes randomly.
type nanTracker struct {
	dets []core.Detection
	inf  bool
}

func (t *nanTracker) Init(_ core.Frame, dets []core.Detection) int {
	t.dets = dets
	return 0
}

func (t *nanTracker) Step(core.Frame) ([]core.Detection, float64) {
	if t.inf {
		return t.dets, math.Inf(1)
	}
	return t.dets, math.NaN()
}

func TestPipelineSurvivesPoisonedVelocity(t *testing.T) {
	// Regression: +Inf velocity passed the old `vel > 0` filter and reached
	// the adaptation model (pinning it at the smallest setting); NaN failed
	// every threshold comparison. Both must be rejected before Eq. 3.
	for _, tc := range []struct {
		name string
		inf  bool
	}{{"nan", false}, {"inf", true}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, policy := range []Policy{PolicyAdaVP, PolicyMARLIN} {
				v := video.GenerateKind("fi", video.KindHighway, 7, 300)
				r, err := Run(v, Config{
					Policy: policy,
					NewTracker: func(uint64) track.Tracker {
						return &nanTracker{inf: tc.inf}
					},
					Seed: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				// Adaptation must not be corrupted into an invalid setting,
				// and no poisoned velocity may ever reach the cycle record.
				for _, c := range r.Run.Cycles {
					if !c.Setting.Valid() {
						t.Fatalf("%v: cycle %d has invalid setting after poisoned velocity", policy, c.Index)
					}
				}
			}
		})
	}
}

// TestSimFaultProfileRecorded checks that a data-fault campaign on the
// virtual clock completes, stays well-formed, and lands its injections in
// the run trace.
func TestSimFaultProfileRecorded(t *testing.T) {
	v := video.GenerateKind("fp", video.KindHighway, 5, 300)
	r, err := Run(v, Config{
		Policy: PolicyAdaVP,
		Seed:   1,
		Fault:  &fault.Profile{Rate: 0.25, Seed: 17},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Run.Outputs) != v.NumFrames() {
		t.Fatalf("%d outputs for %d frames", len(r.Run.Outputs), v.NumFrames())
	}
	if len(r.Run.Faults) == 0 {
		t.Fatal("25% fault campaign recorded no events in the trace")
	}
	for _, ev := range r.Run.Faults {
		if ev.Action != "injected" {
			t.Fatalf("virtual-clock run recorded non-injection event %+v", ev)
		}
	}
	// Outputs must stay sanitized even under garbage/NaN injections.
	for i, out := range r.Run.Outputs {
		for _, d := range out.Detections {
			if math.IsNaN(d.Box.Left) || d.Box.W <= 0 || d.Score < 0 || d.Score > 1 {
				t.Fatalf("frame %d: malformed detection %+v escaped sanitization", i, d)
			}
		}
	}
}

// TestSimFaultScheduleDeterministic pins the cross-engine reproducibility
// contract: two virtual-clock runs with the same profile inject the same
// stream and produce identical outputs.
func TestSimFaultScheduleDeterministic(t *testing.T) {
	run := func() *Result {
		v := video.GenerateKind("fp", video.KindHighway, 5, 200)
		r, err := Run(v, Config{
			Policy: PolicyAdaVP,
			Seed:   1,
			Fault:  &fault.Profile{Rate: 0.3, Seed: 23},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.MeanF1 != b.MeanF1 || a.Accuracy != b.Accuracy {
		t.Fatalf("faulted runs diverge: %.6f/%.6f vs %.6f/%.6f", a.MeanF1, a.Accuracy, b.MeanF1, b.Accuracy)
	}
	if len(a.Run.Faults) != len(b.Run.Faults) {
		t.Fatalf("fault logs diverge: %d vs %d events", len(a.Run.Faults), len(b.Run.Faults))
	}
	for i := range a.Run.Faults {
		if a.Run.Faults[i] != b.Run.Faults[i] {
			t.Fatalf("fault event %d diverges: %+v vs %+v", i, a.Run.Faults[i], b.Run.Faults[i])
		}
	}
}

// TestSimPanicFaultVirtualized checks Virtual mode maps panic faults to lost
// results instead of crashing the discrete-event engine.
func TestSimPanicFaultVirtualized(t *testing.T) {
	v := video.GenerateKind("fp", video.KindHighway, 5, 200)
	r, err := Run(v, Config{
		Policy: PolicyAdaVP,
		Seed:   1,
		Fault:  &fault.Profile{Rate: 1, Kinds: []fault.Kind{fault.KindPanic, fault.KindHang}, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Run.Outputs) != v.NumFrames() {
		t.Fatalf("%d outputs for %d frames", len(r.Run.Outputs), v.NumFrames())
	}
	// Every detection was lost, so accuracy reflects only empty-truth frames.
	if r.MeanF1 > 0.5 {
		t.Errorf("all-faulted run scored %.2f mean F1", r.MeanF1)
	}
}

// TestSimComponentPanicReturnsError checks that a panic from a component that
// is not under fault injection (a genuinely buggy detector) surfaces as an
// error instead of crashing the caller.
func TestSimComponentPanicReturnsError(t *testing.T) {
	v := video.GenerateKind("fp", video.KindHighway, 5, 50)
	_, err := Run(v, Config{Policy: PolicyAdaVP, Seed: 1, Detector: panickyDetector{}})
	if err == nil {
		t.Fatal("panicking detector did not surface as an error")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// panickyDetector panics on every call.
type panickyDetector struct{}

func (panickyDetector) Detect(core.Frame, core.Setting) []core.Detection {
	panic("sim test: injected panic")
}

func TestPipelineOneFrameVideo(t *testing.T) {
	v := video.GenerateKind("one", video.KindHighway, 9, 1)
	for _, p := range allPolicies() {
		r, err := Run(v, Config{Policy: p, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(r.Run.Outputs) != 1 {
			t.Fatalf("%v: %d outputs", p, len(r.Run.Outputs))
		}
	}
}

func TestPipelineVeryShortVideos(t *testing.T) {
	for frames := 1; frames <= 12; frames++ {
		v := video.GenerateKind("short", video.KindCityStreet, uint64(frames), frames)
		for _, p := range allPolicies() {
			if _, err := Run(v, Config{Policy: p, Seed: 1}); err != nil {
				t.Fatalf("%d frames, %v: %v", frames, p, err)
			}
		}
	}
}
