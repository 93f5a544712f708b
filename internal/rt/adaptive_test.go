package rt

import (
	"bytes"
	"context"
	"testing"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/fault"
	"adavp/internal/obs"
	"adavp/internal/par"
	"adavp/internal/video"
)

// adaptiveCfg is the shared matrix configuration: a calibration cadence short
// enough that cancel-and-refill actually fires between switches at depth 3.
func adaptiveCfg(depth int, p *fault.Profile) PipelineConfig {
	return PipelineConfig{
		Setting: core.Setting608, Depth: depth, DetectEvery: 4, Seed: 5,
		TimeScale: 0.0001, Adaptation: adapt.DefaultModel(), Fault: p,
	}
}

// TestAdaptivePipelineDepthParity is the tentpole invariant extended to the
// adaptive path: with calibration decisions switching the setting mid-run —
// and, in the faulted scenario, a deterministic injected fault forcing a
// downgrade — the depth-2 and depth-3 overlapped runs serialize to exactly
// the bytes of the depth-1 sequential reference, at two kernel worker
// counts, and repeated runs of the same overlapped config agree byte for
// byte (two-run parity). The trace includes each frame's setting, so a
// switch applied one frame early or late anywhere in the matrix breaks it.
func TestAdaptivePipelineDepthParity(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	scenarios := []struct {
		name           string
		kind           video.Kind
		seed           uint64
		fault          *fault.Profile
		wantSwitches   int // exact, pinned by the depth-1 reference
		wantDowngrades int
	}{
		// City-street content crosses the default model's velocity thresholds
		// repeatedly: three applied switches, no faults.
		{"citystreet-clean", video.KindCityStreet, 11, nil, 3, 0},
		// Highway with a deterministic empty-result schedule: the lost
		// calibrations hold the previous result and force a downgrade.
		{"highway-faulted", video.KindHighway, 11,
			&fault.Profile{Rate: 0.15, Kinds: []fault.Kind{fault.KindEmpty}, Seed: 1}, 2, 1},
	}
	for _, sc := range scenarios {
		v := pipelineTestVideo(sc.name, sc.kind, sc.seed, 48)
		for _, workers := range []int{1, 4} {
			par.SetWorkers(workers)
			run := func(depth int) (*PipelineResult, []byte) {
				res, err := RunPipelined(context.Background(), v, adaptiveCfg(depth, sc.fault))
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
				if res.Switches != sc.wantSwitches || res.Downgrades != sc.wantDowngrades {
					t.Errorf("%s depth=%d workers=%d: %d switches / %d downgrades, want %d / %d",
						sc.name, depth, workers, res.Switches, res.Downgrades,
						sc.wantSwitches, sc.wantDowngrades)
				}
				if sc.fault != nil {
					helds := 0
					for _, out := range res.Outputs {
						if out.Source == core.SourceHeld {
							helds++
						}
					}
					if helds == 0 {
						t.Errorf("%s depth=%d: injected faults produced no held frames", sc.name, depth)
					}
				}
				if depth == 1 {
					ref = got
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

// TestAdaptivePipelineCancelRefill pins the deterministic half of the
// cancel-and-refill accounting: at depth 1 the prefetched raster is always
// rendered just before the calibration decision, so every applied switch
// cancels exactly one stale raster — StaleRefills == Switches — and the
// published counters agree with the result.
func TestAdaptivePipelineCancelRefill(t *testing.T) {
	v := pipelineTestVideo("citystreet", video.KindCityStreet, 11, 48)
	reg := obs.NewRegistry()
	cfg := adaptiveCfg(1, nil)
	cfg.Obs = reg
	cfg.StreamID = "s0"
	res, err := RunPipelined(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatal("scenario produced no switches; the refill invariant is vacuous")
	}
	if res.StaleRefills != res.Switches {
		t.Errorf("depth-1 StaleRefills = %d, want exactly one per applied switch (%d)",
			res.StaleRefills, res.Switches)
	}
	stream := obs.L("stream", "s0")
	if got := reg.Counter(obs.MetricPrefetchStale, stream).Value(); got != int64(res.StaleRefills) {
		t.Errorf("stale counter = %d, want %d", got, res.StaleRefills)
	}
	if got := reg.Counter(obs.MetricPrefetchRefill, stream).Value(); got < int64(res.StaleRefills) {
		t.Errorf("refill counter = %d, want >= %d stale cancellations", got, res.StaleRefills)
	}
}

// TestStagedRingReclaimsPyramidsOnCancel pins the ownership rule on the
// cancellation path that used to leak: with no processor consuming, the
// prefetcher fills every slot and blocks waiting for a reuse token.
// Cancelling right there must leave every slot holding its pyramid — there
// is no pool to hand anything back to — at depth 1 (no prefetcher at all)
// as at depth 2 and 3.
func TestStagedRingReclaimsPyramidsOnCancel(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		built := make(chan int, 16)
		r := newStagedRing(ctx, depth, 10, func(i int, slot *pipeSlot) {
			if slot.pyr == nil {
				t.Errorf("depth %d: frame %d built into a slot without a pyramid", depth, i)
			}
			built <- i
		})
		if depth > 1 {
			for i := 0; i < depth; i++ {
				if got := <-built; got != i {
					t.Fatalf("depth %d: built frame %d, want %d", depth, got, i)
				}
			}
			// Out of tokens: the prefetcher is parked (or about to park) on the
			// token channel with nothing in hand.
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
		if held, total := r.audit(); held != total || total != depth {
			t.Fatalf("depth %d: %d of %d slots hold their pyramid after cancellation", depth, held, total)
		}
		if len(built) != 0 {
			t.Errorf("depth %d: prefetcher lapped the ring without a token", depth)
		}
	}
}
