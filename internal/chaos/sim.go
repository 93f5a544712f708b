package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"adavp/internal/obs"
	"adavp/internal/serve"
	"adavp/internal/sim"
)

// SoakSim runs the chaos soak on the virtual clock: Rounds rounds of
// multi-stream serving, each round a freshly churned stream set with spliced
// scenario-switching videos, all publishing into one registry. The whole
// soak is a pure function of Config — two same-seed calls return reports
// with equal SnapshotSHA (byte-identical telemetry), which is itself one of
// the invariants the caller checks by running it twice.
//
// Enforced invariants: per-stream calibration age within the fairness bound
// of each round's observed occupancy, and per-scenario mean F1 at or above
// the experiments floors.
func SoakSim(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	root := rngRoot(cfg.Seed)
	reg := obs.NewRegistry()
	st := newChurnState(cfg.Streams)
	acc := newF1Acc()
	rep := &Report{Mode: "sim", Seed: cfg.Seed, Rounds: cfg.Rounds, Streams: cfg.Streams, Slots: cfg.Slots, BatchSize: cfg.Batch.Size}

	for round := 0; round < cfg.Rounds; round++ {
		plans := planRound(root, cfg, round, cfg.SegmentFrames, st)
		streams := make([]sim.MultiStream, len(plans))
		for i, p := range plans {
			streams[i] = sim.MultiStream{
				ID:    p.ID,
				Video: p.Video,
				Config: sim.Config{
					Policy: sim.PolicyAdaVP,
					Seed:   p.Seed,
					Fault:  p.Fault,
				},
			}
		}
		res, err := sim.RunMulti(streams, sim.MultiConfig{Slots: cfg.Slots, Batch: cfg.Batch, Obs: reg})
		if err != nil {
			return nil, fmt.Errorf("chaos: round %d: %w", round, err)
		}
		// Fairness under batching: the generalized bound from the round's
		// longest single-request span (the unbatched bound at B=1).
		bound := serve.FairnessBoundBatched(len(plans), cfg.Slots, cfg.Batch.Size,
			res.MaxSingleOccupancy, plans[0].Video.FrameInterval(), cfg.Batch.Linger)
		if bound > rep.FairnessBound {
			rep.FairnessBound = bound
		}
		if res.MaxQueueDepth > rep.MaxQueueDepth {
			rep.MaxQueueDepth = res.MaxQueueDepth
		}
		if res.MaxOccupancy > rep.MaxOccupancy {
			rep.MaxOccupancy = res.MaxOccupancy
		}
		rep.Batches += res.Batches
		if res.MaxBatch > rep.MaxBatch {
			rep.MaxBatch = res.MaxBatch
		}
		for i, s := range res.Streams {
			rep.Grants += s.Grants
			rep.Deferred += s.Deferred
			rep.Frames += plans[i].Video.NumFrames()
			if s.MaxCalibAge > rep.MaxCalibAge {
				rep.MaxCalibAge = s.MaxCalibAge
			}
			if s.MaxCalibAge > bound {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("round %d stream %s: calib age %v exceeds fairness bound %v", round, s.ID, s.MaxCalibAge, bound))
			}
			acc.add(plans[i], s.Result.Run.FrameF1)
		}
	}
	rep.Churned = st.churned
	rep.Scenarios = acc.scenarios(true, &rep.Violations)

	var buf bytes.Buffer
	if err := reg.Snapshot().WriteProm(&buf); err != nil {
		return nil, fmt.Errorf("chaos: snapshot: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	rep.SnapshotSHA = hex.EncodeToString(sum[:])
	rep.JournalDropped = reg.JournalDropped()
	return rep, nil
}

// SoakSimParity runs the sim soak twice from the same seed and verifies the
// byte-parity invariant: identical telemetry snapshots. The returned report
// is the first run's, with a violation appended when the runs diverge.
func SoakSimParity(cfg Config) (*Report, error) {
	first, err := SoakSim(cfg)
	if err != nil {
		return nil, err
	}
	second, err := SoakSim(cfg)
	if err != nil {
		return nil, err
	}
	if first.SnapshotSHA != second.SnapshotSHA {
		first.Violations = append(first.Violations,
			fmt.Sprintf("same-seed sim soaks diverged: snapshot %s vs %s", first.SnapshotSHA, second.SnapshotSHA))
	}
	return first, nil
}
