package chaos

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/guard"
	"adavp/internal/obs"
	"adavp/internal/rt"
	"adavp/internal/serve"
)

// SoakRT runs the chaos soak on the live goroutine pipeline: rounds of
// serve.Run with the same churned, scenario-switching stream plans as the
// sim soak, repeated until WallBudget expires. It is meant to run under the
// race detector and checks the survival invariants a virtual clock cannot
// observe:
//
//   - zero goroutine growth from soak start to settled soak end;
//   - bounded live-heap delta (post-GC) despite identity churn growing the
//     registry's label space;
//   - calibration age within the fairness bound (plus FairnessSlack for
//     wall-clock scheduling noise) in every round;
//   - the shared escalation budget, drained by fault-burst downgrades,
//     refills back to capacity once pipeline time passes — proving the
//     system regains escalation headroom after the storm.
//
// Per-scenario F1 is accumulated and reported against the experiments
// floors but not enforced: wall-clock scheduling varies cycle counts run to
// run. Cancelling ctx stops the soak after the current round without
// marking a violation.
//
// A pipelined soak (PipelineDepth > 1) stops on work done, not on the clock
// alone. A stream's tracker ring can bank a prefetched frame only from the
// third detection of a run on, and how many detections a wall-paced run gets
// depends on how fast the machine is at that moment. So the soak goes on past
// WallBudget until one round has given every stream bankCycles detection
// cycles; a round that falls short runs the next with segments twice as
// long, up to maxSegmentGrowth times the configured length.
func SoakRT(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	root := rngRoot(cfg.Seed)
	reg := obs.NewRegistry()
	st := newChurnState(cfg.Streams)
	acc := newF1Acc()
	rep := &Report{Mode: "rt", Seed: cfg.Seed, Streams: cfg.Streams, Slots: cfg.Slots, BatchSize: cfg.Batch.Size}
	budget := guard.NewEscalationBudget(DowngradeBudget, DowngradeRefill)
	rep.BudgetCapacity = DowngradeBudget

	rep.GoroutinesBefore = settledGoroutines(0, 2*time.Second)
	rep.HeapBefore = liveHeap()
	start := time.Now()

	worked := cfg.PipelineDepth <= 1
	segFrames, maxSegment := cfg.SegmentFrames, maxSegmentGrowth*cfg.SegmentFrames
	for round := 0; ; round++ {
		if round > 0 && ((worked && time.Since(start) >= cfg.WallBudget) || ctx.Err() != nil || round >= 10000) {
			break
		}
		plans := planRound(root, cfg, round, segFrames, st)
		specs := make([]serve.StreamSpec, len(plans))
		for i, p := range plans {
			c := rt.Config{
				Adaptation: adapt.DefaultModel(),
				Seed:       p.Seed,
				TimeScale:  cfg.TimeScale,
				// Pipelined preset: the prefetch stage only exists on the
				// pixel path, so the soak runs the real kernels.
				PixelMode: cfg.PipelineDepth > 1,
				Fault:     p.Fault,
			}
			specs[i] = serve.StreamSpec{ID: p.ID, Video: p.Video, Config: c}
		}
		res, err := serve.Run(ctx, specs, serve.RunConfig{
			Slots: cfg.Slots, Batch: cfg.Batch, Budget: budget, Obs: reg,
			PipelineDepth: cfg.PipelineDepth,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: round %d: %w", round, err)
		}
		rep.Rounds++
		rep.Batches += int(res.Stats.Batches)
		if int(res.Stats.MaxBatch) > rep.MaxBatch {
			rep.MaxBatch = int(res.Stats.MaxBatch)
		}
		// Refill credit accrues on soak time, which only moves forward, so
		// concurrent rounds could share the budget safely too.
		budget.Advance(time.Since(start))

		var maxOcc time.Duration
		for _, s := range res.Streams {
			if s.Result != nil && s.Result.MaxSlotOccupancy > maxOcc {
				maxOcc = s.Result.MaxSlotOccupancy
			}
		}
		if maxOcc > rep.MaxOccupancy {
			rep.MaxOccupancy = maxOcc
		}
		scaledInterval := time.Duration(float64(plans[0].Video.FrameInterval()) * cfg.TimeScale)
		// Fairness under batching: rt occupancies are measured per member
		// (grant → own release) while the slot frees at the *last* member's
		// release, so the generalized bound stretches the measured span by
		// the batch capacity (≥ any release skew) exactly as the latency
		// model does; FairnessSlack still absorbs wall-clock noise. Linger
		// is zero: the live pool is work-conserving.
		bound := serve.FairnessBoundBatched(len(plans), cfg.Slots, cfg.Batch.Size, maxOcc, scaledInterval, 0) + FairnessSlack
		if bound > rep.FairnessBound {
			rep.FairnessBound = bound
		}
		for i, s := range res.Streams {
			if s.Err != nil {
				if ctx.Err() == nil {
					rep.Violations = append(rep.Violations,
						fmt.Sprintf("round %d stream %s: %v", round, s.ID, s.Err))
				}
				continue
			}
			rep.Grants += s.Result.Cycles
			rep.Deferred += s.Result.Deferred
			rep.Frames += len(s.Result.Outputs)
			rep.Prefetched += s.Result.PrefetchedWhileWaiting
			if s.Result.MaxCalibAge > rep.MaxCalibAge {
				rep.MaxCalibAge = s.Result.MaxCalibAge
			}
			if s.Result.MaxCalibAge > bound {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("round %d stream %s: calib age %v exceeds fairness bound %v", round, s.ID, s.Result.MaxCalibAge, bound))
			}
			acc.add(plans[i], s.Result.FrameF1)
		}
		if !worked {
			worked = everyStreamCycled(res.Streams, bankCycles) || segFrames >= maxSegment
			if !worked {
				segFrames = min(2*segFrames, maxSegment)
			}
		}
	}
	rep.Wall = time.Since(start)
	rep.Churned = st.churned
	rep.Scenarios = acc.scenarios(false, &rep.Violations)
	rep.JournalDropped = reg.JournalDropped()

	// Escalation-budget recovery: advance pipeline time far enough to refill
	// every possible spent grant; anything short of capacity means refill
	// credit was lost.
	rep.BudgetRemaining = budget.Remaining()
	budget.Advance(rep.Wall + (DowngradeBudget+1)*DowngradeRefill)
	rep.BudgetRecovered = budget.Remaining()
	if rep.BudgetRecovered != rep.BudgetCapacity {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("escalation budget recovered to %d of %d after refill horizon", rep.BudgetRecovered, rep.BudgetCapacity))
	}

	rep.GoroutinesAfter = settledGoroutines(rep.GoroutinesBefore, 3*time.Second)
	if rep.GoroutinesAfter > rep.GoroutinesBefore {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("goroutines grew %d -> %d", rep.GoroutinesBefore, rep.GoroutinesAfter))
	}
	rep.HeapAfter = liveHeap()
	if rep.HeapAfter > rep.HeapBefore && rep.HeapAfter-rep.HeapBefore > MaxHeapDelta {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("heap grew %s -> %s, over the %s bound",
				fmtBytes(rep.HeapBefore), fmtBytes(rep.HeapAfter), fmtBytes(MaxHeapDelta)))
	}
	return rep, nil
}

// bankCycles is the number of detection cycles a pipelined run needs before
// its tracker ring can bank a frame: the first detection hands the tracker
// nothing, the second hands it a cycle after its own wait, and the third
// waits while the tracker steps that cycle.
const bankCycles = 3

// maxSegmentGrowth bounds how far a pipelined soak lengthens its segments in
// search of bankCycles detections per stream.
const maxSegmentGrowth = 16

// everyStreamCycled reports whether every stream of a round that ended
// without error ran at least n detection cycles, and at least one did.
func everyStreamCycled(streams []serve.StreamResult, n int) bool {
	ran := false
	for _, s := range streams {
		if s.Err != nil {
			continue
		}
		if s.Result.Cycles < n {
			return false
		}
		ran = true
	}
	return ran
}

// settledGoroutines samples the goroutine count until it stops falling (or
// reaches target, when positive), giving exiting pipeline goroutines time to
// unwind before the leak check.
func settledGoroutines(target int, patience time.Duration) int {
	deadline := time.Now().Add(patience)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		if target > 0 && n <= target {
			return n
		}
		runtime.GC()
		time.Sleep(25 * time.Millisecond)
		next := runtime.NumGoroutine()
		if target <= 0 && next >= n {
			return next
		}
		n = next
	}
	return n
}

// liveHeap returns post-GC live bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
