package rt

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/obs"
	"adavp/internal/par"
	"adavp/internal/track"
	"adavp/internal/video"
)

// TestLivePixelPipelineUsesParPool runs the full guard-supervised goroutine
// pipeline in pixel mode with a multi-worker kernel pool: the camera,
// detector and tracker threads all drive par.Rows concurrently (render,
// resize, threshold, pyramid, flow). Under `make race` this is the stress
// test that proves the pool plus the pooled scratches are race-free in their
// real concurrency context, not just in microtests.
func TestLivePixelPipelineUsesParPool(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	par.SetWorkers(4)
	v := video.GenerateKind("live-pixel", video.KindHighway, 3, 120)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := Config{
		TimeScale: 0.01,
		Seed:      1,
		PixelMode: true,
	}
	r, err := Run(ctx, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := par.Workers(); got != 4 {
		t.Errorf("pool workers = %d after SetWorkers(4) and a run", got)
	}
	if len(r.Outputs) != v.NumFrames() {
		t.Fatalf("%d outputs for %d frames", len(r.Outputs), v.NumFrames())
	}
	if r.Cycles < 1 {
		t.Error("no detection cycles completed")
	}
	if r.MeanF1 <= 0 {
		t.Errorf("pixel pipeline produced mean F1 %f", r.MeanF1)
	}
}

// recordingTracker is a PixelTracker that checks every frame it is handed
// against a fresh render of the same index and records the call order.
// Only the tracker thread calls it; the test reads it after Run returns.
type recordingTracker struct {
	*track.PixelTracker
	v        *video.Video
	inits    int
	steps    int
	last     int      // index of the latest Init or Step
	order    []string // violations of the per-cycle step order
	mismatch []int    // indices whose pixels differ from v.Render
}

func (r *recordingTracker) check(f core.Frame) {
	want := r.v.Render(f.Index)
	if f.Pixels == nil || len(f.Pixels.Pix) != len(want.Pix) {
		r.mismatch = append(r.mismatch, f.Index)
		return
	}
	for i, px := range f.Pixels.Pix {
		if math.Float32bits(px) != math.Float32bits(want.Pix[i]) {
			r.mismatch = append(r.mismatch, f.Index)
			return
		}
	}
}

func (r *recordingTracker) Init(ref core.Frame, dets []core.Detection) int {
	r.check(ref)
	r.inits++
	r.last = ref.Index
	return r.PixelTracker.Init(ref, dets)
}

func (r *recordingTracker) Step(f core.Frame) ([]core.Detection, float64) {
	r.check(f)
	if f.Index <= r.last {
		r.order = append(r.order, fmt.Sprintf("step %d after %d", f.Index, r.last))
	}
	r.steps++
	r.last = f.Index
	return r.PixelTracker.Step(f)
}

// TestRunPixelRingFramesAndBound drives pixel-mode Run at depths 1-3
// through the tracker's stagedRing. Every frame the tracker sees is exactly
// the render of its index, in plan order (strictly increasing within a
// cycle). And the ring renders only what is read: builds — the prefetch
// stage histogram — cover every step and exceed them by at most depth-1 per
// cycle, the frames a cancelled cycle leaves unread. At depth 1 the two are
// equal.
func TestRunPixelRingFramesAndBound(t *testing.T) {
	p := video.ScenarioParams(video.KindHighway)
	p.W, p.H = 320, 180
	v := video.Generate("ring", p, 7, 90)
	for _, depth := range []int{1, 2, 3} {
		reg := obs.NewRegistry()
		rec := &recordingTracker{PixelTracker: track.NewPixelTracker(), v: v}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		_, err := Run(ctx, v, Config{
			TimeScale:     0.1,
			Seed:          3,
			PixelMode:     true,
			Detector:      detect.NewBlobDetector(),
			NewTracker:    func(uint64) track.Tracker { return rec },
			Obs:           reg,
			PipelineDepth: depth,
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if rec.inits == 0 || rec.steps == 0 {
			t.Fatalf("depth %d: %d inits, %d steps — the run tracked nothing", depth, rec.inits, rec.steps)
		}
		if len(rec.mismatch) > 0 {
			t.Errorf("depth %d: frames %v differ from a fresh render", depth, rec.mismatch)
		}
		if len(rec.order) > 0 {
			t.Errorf("depth %d: steps out of plan order: %v", depth, rec.order)
		}
		builds := int(reg.StageHistogram(obs.StagePrefetch).Count())
		t.Logf("depth %d: %d cycles, %d steps, %d builds", depth, rec.inits, rec.steps, builds)
		if limit := rec.steps + rec.inits*(depth-1); builds < rec.steps || builds > limit {
			t.Errorf("depth %d: %d builds for %d steps over %d cycles, want %d..%d",
				depth, builds, rec.steps, rec.inits, rec.steps, limit)
		}
	}
}
