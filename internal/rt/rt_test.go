package rt

import (
	"context"
	"testing"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/video"
)

func liveConfig() Config {
	return Config{TimeScale: 0.01, Seed: 1}
}

func TestRunCompletes(t *testing.T) {
	v := video.GenerateKind("hw", video.KindHighway, 5, 300)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r, err := Run(ctx, v, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outputs) != v.NumFrames() {
		t.Fatalf("%d outputs for %d frames", len(r.Outputs), v.NumFrames())
	}
	if r.Cycles < 2 {
		t.Errorf("only %d detection cycles completed", r.Cycles)
	}
	if r.Accuracy <= 0 {
		t.Errorf("accuracy %f", r.Accuracy)
	}
}

func TestEveryFrameGetsOutput(t *testing.T) {
	v := video.GenerateKind("hw", video.KindHighway, 7, 300)
	ctx := context.Background()
	r, err := Run(ctx, v, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	firstDet := -1
	counts := map[core.Source]int{}
	for i, out := range r.Outputs {
		if out.FrameIndex != i {
			t.Fatalf("output %d has index %d", i, out.FrameIndex)
		}
		counts[out.Source]++
		if out.Source == core.SourceDetector && firstDet < 0 {
			firstDet = i
		}
		if firstDet >= 0 && i > firstDet && out.Source == core.SourceNone {
			t.Fatalf("frame %d unassigned after first detection", i)
		}
	}
	if counts[core.SourceDetector] == 0 || counts[core.SourceTracker] == 0 {
		t.Errorf("source mix %v lacks detector or tracker output", counts)
	}
}

func TestAdaptationSwitchesLive(t *testing.T) {
	// A fast video should pull AdaVP away from its initial 608 setting.
	v := video.GenerateKind("race", video.KindRacetrack, 3, 300)
	cfg := liveConfig()
	cfg.Adaptation = adapt.DefaultModel()
	cfg.Setting = core.Setting608
	r, err := Run(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Switches == 0 {
		t.Error("live AdaVP never switched settings on a racetrack video")
	}
}

func TestFixedSettingNeverSwitches(t *testing.T) {
	v := video.GenerateKind("hw", video.KindHighway, 5, 200)
	cfg := liveConfig()
	cfg.Setting = core.Setting416
	r, err := Run(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Switches != 0 {
		t.Errorf("fixed pipeline switched %d times", r.Switches)
	}
}

func TestCancellation(t *testing.T) {
	v := video.GenerateKind("hw", video.KindHighway, 5, 3000)
	cfg := liveConfig()
	cfg.TimeScale = 0.05 // slow enough that cancellation lands mid-run
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := Run(ctx, v, cfg); err == nil {
		t.Error("cancelled run returned no error")
	}
}

func TestEmptyVideoRejected(t *testing.T) {
	if _, err := Run(context.Background(), nil, liveConfig()); err == nil {
		t.Error("nil video accepted")
	}
	empty := video.GenerateKind("e", video.KindHighway, 1, 0)
	if _, err := Run(context.Background(), empty, liveConfig()); err == nil {
		t.Error("empty video accepted")
	}
}

// TestCamera pins the capture clock: newest is monotone and never passes the
// last frame; waitNewer(than) never returns before frame than+1's capture
// time, and reports !ok at the end of the stream and when cancelled while
// blocked.
func TestCamera(t *testing.T) {
	const interval = 2 * time.Millisecond
	for _, n := range []int{1, 4, 12} {
		cam := camera{ctx: context.Background(), start: time.Now(), interval: interval, n: n}
		for than, prev := -1, -1; than < n-1; {
			got, ok := cam.waitNewer(than)
			if !ok || got <= than || got > n-1 {
				t.Fatalf("n=%d: waitNewer(%d) = %d, %v; want a frame in (%d, %d]", n, than, got, ok, than, n-1)
			}
			if early := time.Until(cam.start.Add(time.Duration(than+1) * interval)); early > 0 {
				t.Fatalf("n=%d: waitNewer(%d) returned %v before frame %d was captured", n, than, early, than+1)
			}
			if now := cam.newest(); now < got || now < prev || now > n-1 {
				t.Fatalf("n=%d: newest = %d after waitNewer returned %d (previous %d)", n, now, got, prev)
			}
			prev, than = got, got
		}
		for _, than := range []int{n - 1, n, n + 7} {
			if _, ok := cam.waitNewer(than); ok {
				t.Errorf("n=%d: waitNewer(%d) found a frame past the last", n, than)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cam := camera{ctx: ctx, start: time.Now(), interval: time.Hour, n: 3}
	if got, ok := cam.waitNewer(-1); !ok || got != 0 {
		t.Fatalf("waitNewer(-1) = %d, %v; frame 0 is captured at start", got, ok)
	}
	blocked := make(chan bool, 1)
	go func() {
		_, ok := cam.waitNewer(0)
		blocked <- ok
	}()
	select {
	case <-blocked:
		t.Fatal("waitNewer(0) returned an hour early")
	case <-time.After(5 * time.Millisecond):
	}
	cancel()
	if <-blocked {
		t.Fatal("waitNewer did not observe the cancellation")
	}
	if _, ok := cam.waitNewer(-1); ok {
		t.Error("waitNewer handed out a frame after cancellation")
	}
}

// TestLiveMatchesSimQualitatively checks the goroutine pipeline lands in the
// same accuracy ballpark as the virtual-clock engine on the same video.
func TestLiveMatchesSimQualitatively(t *testing.T) {
	if testing.Short() {
		t.Skip("live run takes a second")
	}
	v := video.GenerateKind("hw", video.KindHighway, 9, 450)
	// A coarser time scale than the other tests: with ~20 ms emulated
	// inferences, OS scheduler noise under load (e.g. parallel benchmarks)
	// cannot skew the camera/detector pacing ratio.
	cfg := liveConfig()
	cfg.TimeScale = 0.05
	live, err := Run(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The sim equivalent (same detector/tracker seeds, MPDT-512).
	if live.MeanF1 < 0.2 || live.MeanF1 > 0.95 {
		t.Errorf("live mean F1 %.3f implausible", live.MeanF1)
	}
	if live.Cycles < v.NumFrames()/40 {
		t.Errorf("only %d cycles over %d frames", live.Cycles, v.NumFrames())
	}
}
