package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"adavp/internal/serve"
	"adavp/internal/serve/loadtest"
	"adavp/internal/sim"
	"adavp/internal/trace"
	"adavp/internal/video"
)

// sim_sweep runs the virtual-clock engines the way experiment reproduction
// does. Phase A: sim.RunSet over the test set for the five policies, then
// sim.RunMulti over a shared slot pool. Phase B: loadtest.Run over the
// canonical scenario matrix. Both are single-threaded and closed: a round
// starts when the previous one ended.

// simPolicies are phase A's configurations, in the order of simPolicyNames.
var simPolicies = []sim.Config{
	{Policy: sim.PolicyAdaVP, Setting: startSetting},
	{Policy: sim.PolicyMPDT, Setting: startSetting},
	{Policy: sim.PolicyMARLIN, Setting: startSetting},
	{Policy: sim.PolicyNoTracking, Setting: startSetting},
	{Policy: sim.PolicyContinuous, Setting: startSetting},
}

// phaseAShare is the part of the budget phase A gets; phase B gets the rest.
const phaseAShare = 0.55

// simRound is one phase-A round: every policy over the set, then the
// multi-stream run.
type simRound struct {
	policyTook []time.Duration // per policy
	multiTook  time.Duration
	frames     int // virtual frames simulated
	meanF1     float64
	digest     string
}

func (r simRound) took() time.Duration {
	total := r.multiTook
	for _, d := range r.policyTook {
		total += d
	}
	return total
}

// multiStreams builds the sim.RunMulti stream set: the test-set videos, dealt
// round-robin to the streams.
func multiStreams(videos []*video.Video, seed uint64, sc scale) []sim.MultiStream {
	out := make([]sim.MultiStream, sc.multiStreams)
	for i := range out {
		out[i] = sim.MultiStream{
			ID:     fmt.Sprintf("m%02d", i),
			Video:  videos[i%len(videos)],
			Config: sim.Config{Policy: sim.PolicyAdaVP, Setting: startSetting, Seed: streamSeed(seed, i)},
		}
	}
	return out
}

// runSimRound runs one phase-A round. round varies the run seed, so rounds
// do different work over the same videos. The digest is computed only when
// asked for: hashing half a million frame records costs a fifth of a round,
// and only round 0 is ever compared.
func runSimRound(videos []*video.Video, seed uint64, round int, withDigest bool, sc scale) (simRound, error) {
	r := simRound{policyTook: make([]time.Duration, len(simPolicies))}
	h := sha256.New()
	setFrames := 0
	for _, v := range videos {
		setFrames += v.NumFrames()
	}
	var f1Sum float64
	for i, cfg := range simPolicies {
		cfg.Seed = subSeed(seed, laneSimRound, round)
		start := time.Now()
		res, err := sim.RunSet(videos, cfg)
		r.policyTook[i] = time.Since(start)
		if err != nil {
			return r, fmt.Errorf("sim.RunSet %v: %w", cfg.Policy, err)
		}
		r.frames += setFrames
		f1Sum += res.MeanF1
		if withDigest {
			for _, pv := range res.PerVideo {
				hashRun(h, pv.Run)
			}
		}
	}
	streams := multiStreams(videos, subSeed(seed, laneMultiRound, round), sc)
	start := time.Now()
	multi, err := sim.RunMulti(streams, sim.MultiConfig{
		Slots: sc.multiSlots, Batch: serve.BatchConfig{Size: sc.multiBatch},
	})
	r.multiTook = time.Since(start)
	if err != nil {
		return r, fmt.Errorf("sim.RunMulti: %w", err)
	}
	for i, so := range multi.Streams {
		r.frames += streams[i].Video.NumFrames()
		if withDigest {
			hashRun(h, so.Result.Run)
			hashInts(h, int64(so.Grants), int64(so.Deferred), int64(so.MaxWait), int64(so.MaxCalibAge))
		}
	}
	r.meanF1 = f1Sum / float64(len(simPolicies))
	if withDigest {
		r.digest = hex.EncodeToString(h.Sum(nil))
	}
	return r, nil
}

// hashRun folds a simulated run's per-frame record into h: index, source,
// setting, box count, ready time and F1, bit for bit.
func hashRun(h hash.Hash, run *trace.Run) {
	for i, out := range run.Outputs {
		hashInts(h, int64(out.FrameIndex), int64(out.Source), int64(out.Setting),
			int64(len(out.Detections)), int64(out.Ready), int64(math.Float64bits(run.FrameF1[i])))
	}
}

func hashInts(h hash.Hash, xs ...int64) {
	var word [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(word[:], uint64(x))
		h.Write(word[:])
	}
}

// loadtestConfigs is the canonical matrix with its seeds derived from the
// benchmark seed (and, at smoke scale, cut down to toy size).
func loadtestConfigs(seed uint64, sc scale) []loadtest.Config {
	cfgs := loadtest.BenchConfigs()
	for i := range cfgs {
		cfgs[i].Seed = subSeed(seed, laneLoadtest, i)
		if sc.loadtestHorizon > 0 {
			cfgs[i].Horizon = sc.loadtestHorizon
			if cfgs[i].Streams > sc.loadtestStreams {
				cfgs[i].Streams = sc.loadtestStreams
			}
		}
	}
	return cfgs
}

// loadSweep is one pass over the loadtest matrix.
type loadSweep struct {
	took     []time.Duration // per scenario
	requests int
	failed   int
	problems []string
}

func runLoadSweep(cfgs []loadtest.Config) loadSweep {
	sw := loadSweep{took: make([]time.Duration, len(cfgs))}
	for i, cfg := range cfgs {
		start := time.Now()
		rep, err := loadtest.Run(cfg)
		sw.took[i] = time.Since(start)
		if err != nil {
			sw.failed++
			sw.problems = append(sw.problems, fmt.Sprintf("loadtest.Run %s: %v", cfg.Name, err))
			continue
		}
		sw.requests += rep.Requests
		// A deferred request was refused by the bounded queue.
		sw.failed += rep.Deferred
		if err := rep.Validate(); err != nil {
			sw.problems = append(sw.problems, err.Error())
		}
		if !rep.BoundHeld {
			sw.problems = append(sw.problems, fmt.Sprintf("loadtest %s: fairness bound not held", cfg.Name))
		}
	}
	return sw
}

// simSetup generates the test set and warms both engines with one round.
func simSetup(seed uint64, sc scale) ([]*video.Video, error) {
	videos := video.TestSet(subSeed(seed, laneSimSet, 0), sc.simFrames)
	if _, err := runSimRound(videos, seed, 0, false, sc); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	return videos, nil
}

// runSimSweep is the untraced run of sim_sweep.
func runSimSweep(seed uint64, seconds float64, sc scale) (*outcome, error) {
	out := newOutcome(wSimSweep, endToEnd)
	var videos []*video.Video
	setup, err := timeSetup(sc.setupRepeats, func() error {
		var err error
		videos, err = simSetup(seed, sc)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Phase A. Every round simulates the same number of frames, so the
	// median round gives the throughput: one round that shared its core with
	// something else does not move it.
	budgetA := time.Duration(seconds * phaseAShare * float64(time.Second))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var rounds []simRound
	startA := time.Now()
	for len(rounds) < 2 || time.Since(startA) < budgetA {
		r, err := runSimRound(videos, seed, len(rounds), len(rounds) == 0, sc)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	runtime.ReadMemStats(&after)
	// Determinism: round 0 again must reproduce round 0 bit for bit.
	again, err := runSimRound(videos, seed, 0, true, sc)
	if err != nil {
		return nil, err
	}
	if again.digest != rounds[0].digest {
		out.fail("round 0 re-run digest %s differs from %s", again.digest, rounds[0].digest)
	}
	frames := 0
	roundMS := make([]float64, len(rounds))
	for i, r := range rounds {
		frames += r.frames
		roundMS[i] = ms(r.took())
	}

	// Phase B, likewise: every sweep issues the same requests.
	cfgs := loadtestConfigs(seed, sc)
	budgetB := time.Duration(seconds*float64(time.Second)) - time.Since(startA)
	var sweepMS []float64
	requests := 0
	startB := time.Now()
	for len(sweepMS) < 2 || time.Since(startB) < budgetB {
		sw := runLoadSweep(cfgs)
		var took time.Duration
		for _, d := range sw.took {
			took += d
		}
		sweepMS = append(sweepMS, ms(took))
		requests += sw.requests
		out.failed += sw.failed
		out.problems = append(out.problems, sw.problems...)
	}

	out.attempted = frames + requests
	roundDist, sweepDist := newDist(roundMS), newDist(sweepMS)
	out.metrics.set("setup_s", setup.median())
	out.metrics.set("frames_per_s", float64(rounds[0].frames)/(roundDist.median()/1000))
	out.metrics.set("calibrations_per_s", float64(requests)/float64(len(sweepMS))/(sweepDist.median()/1000))
	out.metrics.set("latency_ms_p50", roundDist.median())
	out.metrics.set("mean_f1", rounds[0].meanF1)
	out.metrics.set("allocs_per_frame", float64(after.Mallocs-before.Mallocs)/float64(frames))

	out.detail["videos"] = len(videos)
	out.detail["frames_per_video"] = sc.simFrames
	out.detail["frames_per_round"] = rounds[0].frames
	out.detail["round_ms"] = roundDist.summary()
	out.detail["loadtest_sweep_ms"] = sweepDist.summary()
	out.detail["loadtest_requests_per_sweep"] = requests / len(sweepMS)
	out.detail["output_digest"] = rounds[0].digest
	out.detail["setup_s_values"] = setup.sorted
	return out, nil
}
