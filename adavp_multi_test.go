package adavp

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func facadeVideos(frames int) []*Video {
	return []*Video{
		GenerateVideo(ScenarioHighway, 11, frames),
		GenerateVideo(ScenarioIntersection, 12, frames),
		GenerateVideo(ScenarioCityStreet, 13, frames),
	}
}

// With one slot per stream nothing ever waits, so stream i of RunMulti is
// exactly the single-stream Run of the same Options at Seed+i — which pins
// the per-stream seed and that both entry points build the same engine
// configuration from Options.
func TestRunMultiStreamsAreRunsAtSeedPlusIndex(t *testing.T) {
	videos := facadeVideos(240)
	opts := Options{Policy: PolicyAdaVP, Setting: Setting416, Seed: 40, Alpha: 0.6}
	multi, err := RunMulti(videos, opts, ServeOptions{Slots: len(videos)})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Streams) != len(videos) {
		t.Fatalf("%d streams for %d videos", len(multi.Streams), len(videos))
	}
	for i, s := range multi.Streams {
		if want := fmt.Sprintf("s%d", i); s.ID != want {
			t.Errorf("stream %d is named %q, want %q", i, s.ID, want)
		}
		solo := opts
		solo.Seed += uint64(i)
		single, err := Run(videos[i], solo)
		if err != nil {
			t.Fatal(err)
		}
		if s.Result.Accuracy != single.Accuracy || s.Result.MeanF1 != single.MeanF1 ||
			!reflect.DeepEqual(s.Result.FrameF1, single.FrameF1) {
			t.Errorf("stream %d differs from Run at seed %d: accuracy %.4f vs %.4f, mean F1 %.4f vs %.4f",
				i, solo.Seed, s.Result.Accuracy, single.Accuracy, s.Result.MeanF1, single.MeanF1)
		}
		if s.Result.Trace == nil || len(s.Result.Outputs) != videos[i].NumFrames() {
			t.Errorf("stream %d: incomplete result", i)
		}
	}
}

func TestRunMultiFairnessAndAdmission(t *testing.T) {
	videos := facadeVideos(240)
	multi, err := RunMulti(videos, Options{Seed: 5}, ServeOptions{Slots: 1, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if multi.FairnessBound <= 0 || multi.Batches == 0 || multi.MaxQueueDepth == 0 {
		t.Fatalf("scheduler accounting missing: %+v", multi)
	}
	for _, s := range multi.Streams {
		if s.Grants == 0 || s.Result.Trace.Policy != "AdaVP" {
			t.Errorf("stream %s: %d grants under policy %s", s.ID, s.Grants, s.Result.Trace.Policy)
		}
		if s.MaxCalibAge == 0 || s.MaxCalibAge > multi.FairnessBound {
			t.Errorf("stream %s: calibration age %v against the fairness bound %v", s.ID, s.MaxCalibAge, multi.FairnessBound)
		}
	}
	if _, err := RunMulti(videos, Options{}, ServeOptions{MaxStreams: 2}); err == nil || !strings.Contains(err.Error(), "admission cap") {
		t.Errorf("3 streams over MaxStreams 2: err = %v", err)
	}
	if _, err := RunMulti(videos, Options{Policy: PolicyMARLIN}, ServeOptions{}); err == nil {
		t.Error("RunMulti scheduled MARLIN")
	}
}

func TestRunLiveMulti(t *testing.T) {
	videos := facadeVideos(90)[:2]
	multi, err := RunLiveMulti(context.Background(), videos, Options{Policy: PolicyMPDT, Seed: 9}, 0.01, ServeOptions{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range multi.Streams {
		if want := fmt.Sprintf("s%d", i); s.ID != want {
			t.Errorf("stream %d is named %q, want %q", i, s.ID, want)
		}
		if s.Err != nil || s.Result == nil || len(s.Result.Outputs) != videos[i].NumFrames() || s.Result.Partial {
			t.Errorf("stream %s: err %v, result %+v", s.ID, s.Err, s.Result)
		}
	}
	if _, err := RunLiveMulti(context.Background(), videos, Options{}, 0.01, ServeOptions{MaxStreams: 1}); err == nil || !strings.Contains(err.Error(), "admission cap") {
		t.Errorf("2 streams over MaxStreams 1: err = %v", err)
	}
}

// Both live entry points refuse the sequential baselines with one message.
func TestLiveRejectsSequentialPolicies(t *testing.T) {
	videos := facadeVideos(30)
	for _, p := range []Policy{PolicyMARLIN, PolicyNoTracking, PolicyContinuous} {
		want := fmt.Sprintf("adavp: live pipeline supports PolicyAdaVP and PolicyMPDT, not %v", p)
		if _, err := RunLive(context.Background(), videos[0], Options{Policy: p}, 0.01); err == nil || err.Error() != want {
			t.Errorf("RunLive %v: err = %v, want %q", p, err, want)
		}
		if _, err := RunLiveMulti(context.Background(), videos, Options{Policy: p}, 0.01, ServeOptions{}); err == nil || err.Error() != want {
			t.Errorf("RunLiveMulti %v: err = %v, want %q", p, err, want)
		}
	}
}
