package rt

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"adavp/internal/core"
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
// calibration cadence, and that the run records its wall time.
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
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
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
