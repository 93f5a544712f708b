package rt

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/obs"
	"adavp/internal/par"
	"adavp/internal/video"
)

// pipelineTestVideo renders at the blob detector's 704 reference width, the
// largest frame the kernels see in production.
func pipelineTestVideo(name string, k video.Kind, seed uint64, frames int) *video.Video {
	p := video.ScenarioParams(k)
	p.W, p.H = 704, 396
	return video.Generate(name, p, seed, frames)
}

// runTrace serializes a pipelined result both ways; byte equality of this
// blob is the parity contract (CSV would hide float differences past its
// formatting precision, JSON would hide field-order accidents — together
// they pin everything the trace schema records).
func runTrace(t *testing.T, r *PipelineResult, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	run := r.TraceRun(name, "pipelined")
	if err := run.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := run.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestPipelineDepthParity is the tentpole invariant: for multiple scenarios
// and at two kernel worker counts, a depth-3 overlapped run serializes to
// exactly the bytes of the depth-1 sequential reference.
func TestPipelineDepthParity(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	scenarios := []struct {
		name string
		kind video.Kind
		seed uint64
	}{
		{"highway", video.KindHighway, 11},
		{"citystreet", video.KindCityStreet, 23},
	}
	for _, sc := range scenarios {
		v := pipelineTestVideo(sc.name, sc.kind, sc.seed, 40)
		for _, workers := range []int{1, 4} {
			par.SetWorkers(workers)
			var ref []byte
			for _, depth := range []int{1, 2, 3} {
				res, err := RunPipelined(context.Background(), v, PipelineConfig{
					Setting: core.Setting608, Depth: depth, DetectEvery: 8, Seed: 5,
					TimeScale: 0.001,
				})
				if err != nil {
					t.Fatalf("%s depth=%d workers=%d: %v", sc.name, depth, workers, err)
				}
				if res.Published != v.NumFrames() || res.Partial {
					t.Fatalf("%s depth=%d: published %d/%d partial=%v", sc.name, depth, res.Published, v.NumFrames(), res.Partial)
				}
				got := runTrace(t, res, sc.name)
				if depth == 1 {
					ref = got
					continue
				}
				if !bytes.Equal(got, ref) {
					t.Errorf("%s workers=%d: depth-%d trace differs from depth-1 (%d vs %d bytes)", sc.name, workers, depth, len(got), len(ref))
				}
			}
		}
	}
}

// TestPipelineOrderAndCadence pins the publish order and the detector
// calibration cadence.
func TestPipelineOrderAndCadence(t *testing.T) {
	v := pipelineTestVideo("hw", video.KindHighway, 3, 25)
	res, err := RunPipelined(context.Background(), v, PipelineConfig{
		Setting: core.Setting608, Depth: 3, DetectEvery: 6, TimeScale: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if out.FrameIndex != i {
			t.Fatalf("output %d carries frame index %d", i, out.FrameIndex)
		}
		want := core.SourceTracker
		if i%6 == 0 {
			want = core.SourceDetector
		}
		if out.Source != want {
			t.Errorf("frame %d: source %v, want %v", i, out.Source, want)
		}
		if out.Ready != 0 {
			t.Errorf("frame %d: Ready=%v, must stay zero for depth-independent traces", i, out.Ready)
		}
	}
}

// TestPipelineCancellation cancels mid-run from a second goroutine — under
// -race this doubles as the prefetch/reorder shutdown race check — and
// verifies the partial result is a clean prefix.
func TestPipelineCancellation(t *testing.T) {
	v := pipelineTestVideo("hw", video.KindHighway, 7, 120)
	for _, depth := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		res, err := RunPipelined(ctx, v, PipelineConfig{
			Setting: core.Setting608, Depth: depth, DetectEvery: 8, TimeScale: 0.001,
		})
		wg.Wait()
		if err == nil && res.Published == v.NumFrames() {
			// The machine outran the timer; nothing to assert.
			continue
		}
		if err == nil {
			t.Fatalf("depth=%d: partial publish (%d) without error", depth, res.Published)
		}
		if !res.Partial {
			t.Fatalf("depth=%d: error without Partial flag", depth)
		}
		for i := 0; i < res.Published; i++ {
			if res.Outputs[i].FrameIndex != i {
				t.Fatalf("depth=%d: published prefix broken at %d", depth, i)
			}
		}
		for i := res.Published; i < v.NumFrames(); i++ {
			if res.Outputs[i].Detections != nil {
				t.Fatalf("depth=%d: output %d written beyond published prefix", depth, i)
			}
		}
	}
}

// TestPipelineObservability checks the frames-in-flight gauge settles at
// zero and the stage histograms saw every frame.
func TestPipelineObservability(t *testing.T) {
	v := pipelineTestVideo("hw", video.KindHighway, 9, 30)
	reg := obs.NewRegistry()
	res, err := RunPipelined(context.Background(), v, PipelineConfig{
		Setting: core.Setting608, Depth: 2, DetectEvery: 8, TimeScale: 0.001,
		Obs: reg, StreamID: "s0",
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := obs.L("stream", "s0")
	if g := reg.Gauge(obs.MetricFramesInFlight, stream).Value(); g != 0 {
		t.Errorf("frames in flight after completion: %v", g)
	}
	n := int64(v.NumFrames())
	if c := reg.StageHistogram(obs.StagePrefetch, stream).Count(); c != n {
		t.Errorf("prefetch observations: %d, want %d", c, n)
	}
	if c := reg.StageHistogram(obs.StagePublish, stream).Count(); c != n {
		t.Errorf("publish observations: %d, want %d", c, n)
	}
	det := reg.StageHistogram(obs.StageDetect, stream, obs.L("setting", core.Setting608.String())).Count()
	trk := reg.StageHistogram(obs.StageTrack, stream).Count()
	if det+trk != n {
		t.Errorf("detect(%d)+track(%d) != %d frames", det, trk, n)
	}
	if c := reg.Histogram(obs.MetricStageOverlap, obs.DefLatencyBuckets, stream).Count(); c != n-1 {
		t.Errorf("overlap observations: %d, want %d", c, n-1)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

// TestPipelineOverlapIsStructural checks the point of the exercise by what
// the loop records rather than by a wall-clock ratio: at depth 2 some of every
// run's prefetch time lies inside the previous frame's processing interval
// (continuous detection with a non-trivial emulated detector latency parks
// the processor long enough for the prefetcher to get a core even on one
// CPU), and at depth 1 none can, because the slot is filled inline after that
// interval has closed. How much wall time the overlap buys is
// rt.overlap_gain in bench/.
func TestPipelineOverlapIsStructural(t *testing.T) {
	v := pipelineTestVideo("hw", video.KindHighway, 13, 24)
	overlap := func(depth int) *obs.Histogram {
		reg := obs.NewRegistry()
		if _, err := RunPipelined(context.Background(), v, PipelineConfig{
			Setting: core.Setting608, Depth: depth, DetectEvery: 1, TimeScale: 0.02,
			Obs: reg, StreamID: "s0",
		}); err != nil {
			t.Fatal(err)
		}
		return reg.Histogram(obs.MetricStageOverlap, obs.DefLatencyBuckets, obs.L("stream", "s0"))
	}
	n := int64(v.NumFrames())
	if h := overlap(1); h.Count() != n-1 || h.Sum() != 0 {
		t.Errorf("depth 1: %d overlap observations summing to %v s, want %d summing to exactly 0", h.Count(), h.Sum(), n-1)
	}
	if h := overlap(2); h.Count() != n-1 || h.Sum() <= 0 {
		t.Errorf("depth 2: %d overlap observations summing to %v s, want %d with a positive sum: overlap not engaging", h.Count(), h.Sum(), n-1)
	}
}
