package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/leaktest"
	"adavp/internal/trace"
	"adavp/internal/track"
	"adavp/internal/video"
)

func testVideo(t *testing.T) *video.Video {
	t.Helper()
	return video.GenerateKind("hw", video.KindHighway, 5, 450)
}

func allPolicies() []Policy {
	return []Policy{PolicyAdaVP, PolicyMPDT, PolicyMARLIN, PolicyNoTracking, PolicyContinuous}
}

func TestRunEveryPolicy(t *testing.T) {
	v := testVideo(t)
	for _, p := range allPolicies() {
		r, err := Run(v, Config{Policy: p, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(r.Run.Outputs) != v.NumFrames() {
			t.Fatalf("%v: %d outputs for %d frames", p, len(r.Run.Outputs), v.NumFrames())
		}
		if len(r.Run.FrameF1) != v.NumFrames() {
			t.Fatalf("%v: %d F1 entries", p, len(r.Run.FrameF1))
		}
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("%v: accuracy %f", p, r.Accuracy)
		}
		if len(r.Run.Cycles) == 0 {
			t.Fatalf("%v: no cycles recorded", p)
		}
		if r.Run.Duration <= 0 {
			t.Fatalf("%v: non-positive duration", p)
		}
	}
}

// Every frame must receive exactly one output with its own index, and every
// output must be attributable (no SourceNone after the first detection).
func TestOutputsCoverEveryFrame(t *testing.T) {
	v := testVideo(t)
	for _, p := range allPolicies() {
		r, err := Run(v, Config{Policy: p, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		firstDet := -1
		for i, out := range r.Run.Outputs {
			if out.FrameIndex != i {
				t.Fatalf("%v: output %d has frame index %d", p, i, out.FrameIndex)
			}
			if out.Source == core.SourceDetector && firstDet < 0 {
				firstDet = i
			}
			if firstDet >= 0 && i > firstDet && out.Source == core.SourceNone {
				t.Fatalf("%v: frame %d has no output after first detection", p, i)
			}
		}
		if firstDet != 0 {
			t.Fatalf("%v: first detection at frame %d, want 0", p, firstDet)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	v := testVideo(t)
	for _, p := range allPolicies() {
		a, err := Run(v, Config{Policy: p, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(v, Config{Policy: p, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if a.Accuracy != b.Accuracy || a.MeanF1 != b.MeanF1 {
			t.Fatalf("%v: non-deterministic results", p)
		}
		if len(a.Run.Cycles) != len(b.Run.Cycles) {
			t.Fatalf("%v: non-deterministic cycle count", p)
		}
	}
}

func TestGPUIntervalsNonOverlapping(t *testing.T) {
	v := testVideo(t)
	for _, p := range allPolicies() {
		r, err := Run(v, Config{Policy: p, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var prevEnd time.Duration
		for _, iv := range r.Run.Busy {
			if iv.Resource != trace.ResourceGPU {
				continue
			}
			if iv.Start < prevEnd {
				t.Fatalf("%v: GPU intervals overlap at %v", p, iv.Start)
			}
			if iv.End <= iv.Start {
				t.Fatalf("%v: empty GPU interval", p)
			}
			prevEnd = iv.End
		}
	}
}

func TestMARLINSequential(t *testing.T) {
	// MARLIN's defining property: GPU and CPU busy intervals never overlap.
	v := testVideo(t)
	r, err := Run(v, Config{Policy: PolicyMARLIN, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var gpu, cpu []trace.Interval
	for _, iv := range r.Run.Busy {
		if iv.Resource == trace.ResourceGPU {
			gpu = append(gpu, iv)
		} else {
			cpu = append(cpu, iv)
		}
	}
	for _, g := range gpu {
		for _, c := range cpu {
			if g.Start < c.End && c.Start < g.End {
				t.Fatalf("MARLIN GPU [%v,%v) overlaps CPU [%v,%v)", g.Start, g.End, c.Start, c.End)
			}
		}
	}
}

func TestMPDTConcurrent(t *testing.T) {
	// MPDT's defining property: tracking happens while the GPU is busy.
	v := testVideo(t)
	r, err := Run(v, Config{Policy: PolicyMPDT, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	overlap := false
	for _, a := range r.Run.Busy {
		if a.Resource != trace.ResourceGPU {
			continue
		}
		for _, b := range r.Run.Busy {
			if b.Resource == trace.ResourceCPUTrack && a.Start < b.End && b.Start < a.End {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Error("MPDT never tracked while detecting")
	}
}

func TestAdaVPSwitchesSettings(t *testing.T) {
	// A mixed-speed video must trigger at least one model-setting switch,
	// and all four settings must be reachable across the test set.
	videos := video.TestSet(11, 450)
	used := make(map[core.Setting]bool)
	totalSwitches := 0
	for _, v := range videos {
		r, err := Run(v, Config{Policy: PolicyAdaVP, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range r.Run.Cycles {
			used[c.Setting] = true
		}
		totalSwitches += len(r.Run.Switches)
	}
	if totalSwitches == 0 {
		t.Error("AdaVP never switched settings over the whole test set")
	}
	for _, s := range core.AdaptiveSettings {
		if !used[s] {
			t.Errorf("setting %v never used", s)
		}
	}
}

func TestMPDTFixedNeverSwitches(t *testing.T) {
	v := testVideo(t)
	r, err := Run(v, Config{Policy: PolicyMPDT, Setting: core.Setting416, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Run.Switches) != 0 {
		t.Errorf("fixed MPDT recorded %d switches", len(r.Run.Switches))
	}
	for _, c := range r.Run.Cycles {
		if c.Setting != core.Setting416 {
			t.Errorf("cycle %d ran at %v", c.Index, c.Setting)
		}
	}
}

// The headline result (Fig. 6): AdaVP beats every fixed-setting MPDT, which
// beats MARLIN and the no-tracking baseline at the same setting.
func TestPolicyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full test-set sweep is slow")
	}
	videos := video.TestSet(2, 450)
	adavp, err := RunSet(videos, Config{Policy: PolicyAdaVP, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range core.AdaptiveSettings {
		mpdt, err := RunSet(videos, Config{Policy: PolicyMPDT, Setting: s, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		marlin, err := RunSet(videos, Config{Policy: PolicyMARLIN, Setting: s, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if adavp.MeanAccuracy <= mpdt.MeanAccuracy {
			t.Errorf("AdaVP (%.3f) not better than MPDT-%v (%.3f)", adavp.MeanAccuracy, s, mpdt.MeanAccuracy)
		}
		if mpdt.MeanAccuracy <= marlin.MeanAccuracy {
			t.Errorf("MPDT-%v (%.3f) not better than MARLIN-%v (%.3f)", s, mpdt.MeanAccuracy, s, marlin.MeanAccuracy)
		}
	}
}

func TestContinuousSlowerThanRealTime(t *testing.T) {
	v := testVideo(t)
	r, err := Run(v, Config{Policy: PolicyContinuous, Setting: core.Setting608, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	realTime := time.Duration(v.NumFrames()) * v.FrameInterval()
	ratio := float64(r.Run.Duration) / float64(realTime)
	// Paper Table III: YOLOv3-608 without skipping runs at 10.3x real time
	// (larger than 500ms/33ms = 15x because their power-optimal clocks batch
	// better; we reproduce the latency-model value 500/33.3 = 15x).
	if ratio < 10 {
		t.Errorf("continuous 608 ratio %.1fx, want >= 10x real time", ratio)
	}
	rt, err := Run(v, Config{Policy: PolicyMPDT, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if float64(rt.Run.Duration) > float64(realTime)*1.1 {
		t.Errorf("MPDT duration %v exceeds real time %v", rt.Run.Duration, realTime)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, Config{Policy: PolicyMPDT}); err == nil {
		t.Error("nil video should fail")
	}
	empty := video.GenerateKind("e", video.KindHighway, 1, 0)
	if _, err := Run(empty, Config{Policy: PolicyMPDT}); err == nil {
		t.Error("empty video should fail")
	}
	v := testVideo(t)
	if _, err := Run(v, Config{Policy: Policy(99)}); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestRunSetErrors(t *testing.T) {
	if _, err := RunSet(nil, Config{Policy: PolicyMPDT}); err == nil {
		t.Error("empty set should fail")
	}
}

// TestRunWithPixelTrackerAndBlobDetector runs the real pixel pipeline end to
// end; the run holds par's gangs, and they are joined when it returns.
func TestRunWithPixelTrackerAndBlobDetector(t *testing.T) {
	if testing.Short() {
		t.Skip("pixel mode is slow")
	}
	v := video.GenerateKind("hw", video.KindHighway, 5, 90)
	base := leaktest.Count()
	r, err := Run(v, Config{Policy: PolicyMPDT, Setting: core.Setting512, PixelMode: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanF1 <= 0.1 {
		t.Errorf("pixel-mode MPDT mean F1 = %.3f; the real pipeline should work end to end", r.MeanF1)
	}
	if got := leaktest.Count(); got != base {
		t.Errorf("%d module goroutines after the pixel run, want %d: its gangs outlived it", got, base)
	}
}

// TestPixelModeDefaultsToPixelComponents: PixelMode alone runs the
// BlobDetector and the PixelTracker, exactly as when a caller spells them out.
func TestPixelModeDefaultsToPixelComponents(t *testing.T) {
	v := video.GenerateKind("hw", video.KindHighway, 5, 45)
	digest := func(cfg Config) string {
		r, err := Run(v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		digestResult(t, h, r)
		return hex.EncodeToString(h.Sum(nil))
	}
	implicit := digest(Config{Policy: PolicyAdaVP, Seed: 1, PixelMode: true})
	explicit := digest(Config{Policy: PolicyAdaVP, Seed: 1, PixelMode: true,
		Detector:   detect.NewBlobDetector(),
		NewTracker: func(uint64) track.Tracker { return track.NewPixelTracker() }})
	if implicit != explicit {
		t.Errorf("PixelMode alone ran other components than BlobDetector and PixelTracker: digest %s, spelled out %s", implicit, explicit)
	}
}

func TestCollectTrainingSamples(t *testing.T) {
	videos := []*video.Video{
		video.GenerateKind("a", video.KindHighway, 3, 150),
		video.GenerateKind("b", video.KindMeetingRoom, 4, 150),
	}
	samples, err := CollectTrainingSamples(videos, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range samples {
		if !s.Current.Valid() || !s.Best.Valid() {
			t.Fatalf("invalid sample %+v", s)
		}
		if s.Velocity < 0 {
			t.Fatalf("negative velocity %+v", s)
		}
		if len(s.Scores) != len(core.AdaptiveSettings) {
			t.Fatalf("sample missing scores: %+v", s)
		}
	}
	// Too-short videos yield an error, not a panic.
	if _, err := CollectTrainingSamples([]*video.Video{video.GenerateKind("s", video.KindHighway, 1, 10)}, 1); err == nil {
		t.Error("too-short videos should fail")
	}
}

func TestCyclesHaveSaneBookkeeping(t *testing.T) {
	v := testVideo(t)
	r, err := Run(v, Config{Policy: PolicyAdaVP, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range r.Run.Cycles {
		if c.Index != i {
			t.Fatalf("cycle %d has index %d", i, c.Index)
		}
		if c.End <= c.Start {
			t.Fatalf("cycle %d has non-positive duration", i)
		}
		if c.FramesTracked > c.FramesBuffered {
			t.Fatalf("cycle %d tracked %d of %d buffered", i, c.FramesTracked, c.FramesBuffered)
		}
		if !c.Setting.Valid() {
			t.Fatalf("cycle %d has invalid setting", i)
		}
	}
	// Detected frames strictly increase.
	for i := 1; i < len(r.Run.Cycles); i++ {
		if r.Run.Cycles[i].DetectedFrame <= r.Run.Cycles[i-1].DetectedFrame {
			t.Fatalf("detected frames not increasing at cycle %d", i)
		}
	}
}

func TestPolicyString(t *testing.T) {
	for _, c := range []struct {
		p    Policy
		want string
	}{
		{PolicyAdaVP, "AdaVP"},
		{PolicyMPDT, "MPDT"},
		{PolicyMARLIN, "MARLIN"},
		{PolicyNoTracking, "NoTracking"},
		{PolicyContinuous, "Continuous"},
	} {
		if got := c.p.String(); got != c.want {
			t.Errorf("%d.String() = %q", int(c.p), got)
		}
	}
	if got := Policy(42).String(); got == "" {
		t.Error("unknown policy empty string")
	}
}

func BenchmarkRunMPDT450Frames(b *testing.B) {
	v := video.GenerateKind("hw", video.KindHighway, 5, 450)
	for i := 0; i < b.N; i++ {
		if _, err := Run(v, Config{Policy: PolicyMPDT, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAdaVP450Frames(b *testing.B) {
	v := video.GenerateKind("hw", video.KindHighway, 5, 450)
	for i := 0; i < b.N; i++ {
		if _, err := Run(v, Config{Policy: PolicyAdaVP, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
