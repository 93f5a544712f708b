package rt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/par"
	"adavp/internal/video"
)

// adaptiveCfg is the shared matrix configuration: a calibration cadence short
// enough for several applied switches in a short video.
func adaptiveCfg(depth int) PipelineConfig {
	return PipelineConfig{
		Setting: core.Setting608, Depth: depth, DetectEvery: 4, Seed: 5,
		TimeScale: 0.0001, Adaptation: adapt.DefaultModel(),
	}
}

// TestAdaptivePipelineDepthParity is the tentpole invariant extended to the
// adaptive path: with calibration decisions switching the setting mid-run,
// the depth-2 and depth-3 overlapped runs serialize to exactly the bytes of
// the depth-1 sequential reference, at two kernel worker counts, and repeated
// runs of the same overlapped config agree byte for byte (two-run parity).
// The trace includes each frame's setting, so a switch applied one frame
// early or late anywhere in the matrix breaks it. The depth-1 trace is also
// pinned by its sha256: RunPipelined decides on the raw window mean of the
// cycle just ended (stagedRun.adaptSetting), and a change to that rule —
// smoothing it as adapt.Controller does — moves the spliced input's hash.
func TestAdaptivePipelineDepthParity(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	scenarios := []struct {
		name         string
		v            *video.Video
		wantSwitches int    // exact, pinned by the depth-1 reference
		wantSHA      string // sha256 of the depth-1 trace
	}{
		// Both scenarios cross the default model's velocity thresholds
		// repeatedly.
		{"citystreet", pipelineTestVideo("citystreet", video.KindCityStreet, 11, 48), 3,
			"7bb627d1d15a498fb669242cd9346348b13bfb93d5a5ad57068e46bbab9d73e8"},
		{"racetrack", pipelineTestVideo("racetrack", video.KindRacetrack, 11, 48), 3,
			"a0cfe5d2554f6498514317d097710f877083ddd74fbdcd81b50d068d7a3ce9fd"},
		// Hard cuts between the pixel workloads' scenes and a fast one: the
		// window mean jumps at every cut.
		{"spliced", video.Splice("spliced",
			pipelineTestVideo("spliced-highway", video.KindHighway, 21, 16),
			pipelineTestVideo("spliced-citystreet", video.KindCityStreet, 22, 16),
			pipelineTestVideo("spliced-meetingroom", video.KindMeetingRoom, 23, 16),
			pipelineTestVideo("spliced-racetrack", video.KindRacetrack, 24, 16)), 4,
			"d851952b8352fd958e8b99a58b384d5ad17876bb18dda7779c00c60a3aa4f9d4"},
	}
	for _, sc := range scenarios {
		v := sc.v
		for _, workers := range []int{1, 4} {
			par.SetWorkers(workers)
			run := func(depth int) (*PipelineResult, []byte) {
				res, err := RunPipelined(context.Background(), v, adaptiveCfg(depth))
				if err != nil {
					t.Fatalf("%s depth=%d workers=%d: %v", sc.name, depth, workers, err)
				}
				if res.Published != v.NumFrames() || res.Partial {
					t.Fatalf("%s depth=%d: published %d/%d partial=%v",
						sc.name, depth, res.Published, v.NumFrames(), res.Partial)
				}
				return res, runTrace(t, res, sc.name)
			}
			var ref []byte
			for _, depth := range []int{1, 2, 3} {
				res, got := run(depth)
				if res.Switches != sc.wantSwitches {
					t.Errorf("%s depth=%d workers=%d: %d switches, want %d",
						sc.name, depth, workers, res.Switches, sc.wantSwitches)
				}
				if depth == 1 {
					ref = got
					sum := sha256.Sum256(got)
					if h := hex.EncodeToString(sum[:]); h != sc.wantSHA {
						t.Errorf("%s workers=%d: depth-1 trace sha256 = %s, want %s", sc.name, workers, h, sc.wantSHA)
					}
					continue
				}
				if !bytes.Equal(got, ref) {
					t.Errorf("%s workers=%d: adaptive depth-%d trace differs from depth-1 (%d vs %d bytes)",
						sc.name, workers, depth, len(got), len(ref))
				}
				if workers == 4 {
					// Two-run parity: the overlapped schedule re-raced from
					// scratch must reproduce itself, not just the reference.
					if _, again := run(depth); !bytes.Equal(got, again) {
						t.Errorf("%s depth=%d: two runs of the same overlapped config diverged", sc.name, depth)
					}
				}
			}
		}
	}
}

// TestStagedRingReclaimsPyramidsOnCancel pins the ownership rule on the
// cancellation path that used to leak: with no processor consuming, the
// prefetcher fills every slot and blocks waiting for a reuse token.
// Cancelling right there must leave every slot holding its pyramid — there
// is no pool to hand anything back to — at depth 1 (no prefetcher at all)
// as at depth 2 and 3. The second pass re-arms the same slots, as Run does
// once per tracker cycle: the tokens the cancelled pass kept come back.
// It also carries the structural-overlap property: at depth d the prefetcher
// builds d frames before any next, at depth 1 none.
func TestStagedRingReclaimsPyramidsOnCancel(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		built := make(chan int, 16)
		r := newStagedRing(depth, func(i int, slot *pipeSlot) {
			if slot.pyr == nil {
				t.Errorf("depth %d: frame %d built into a slot without a pyramid", depth, i)
			}
			built <- i
		})
		for pass := 0; pass < 2; pass++ {
			ctx, cancel := context.WithCancel(context.Background())
			r.arm(ctx, 10)
			if depth > 1 {
				for i := 0; i < depth; i++ {
					if got := <-built; got != i {
						t.Fatalf("depth %d pass %d: built frame %d, want %d", depth, pass, got, i)
					}
				}
				// Out of tokens: the prefetcher is parked (or about to park) on
				// the token channel with nothing in hand.
				time.Sleep(5 * time.Millisecond)
			}
			cancel()
			if held, total := r.audit(); held != total || total != depth {
				t.Fatalf("depth %d pass %d: %d of %d slots hold their pyramid after cancellation", depth, pass, held, total)
			}
			if len(built) != 0 {
				t.Errorf("depth %d pass %d: prefetcher lapped the ring without a token", depth, pass)
			}
		}
	}
}
