// Package chaos is the hostile-scenario soak harness: it drives N serve-pool
// streams through scenario churn (streams switch scenario presets mid-video
// via spliced segments), arrival churn (streams disconnect and reconnect
// between rounds under new identities) and seeded fault injection, then ends
// the soak with a machine-checked invariant report.
//
// Two soaks share one round planner:
//
//   - SoakSim runs the virtual-clock engine over a long horizon. Everything
//     derives from Config.Seed, so two same-seed soaks produce byte-identical
//     telemetry snapshots — the parity invariant — and the per-scenario F1
//     floors of internal/experiments are enforced exactly.
//   - SoakRT runs the live goroutine pipeline under a wall-clock budget
//     (meant for -race) and checks the survival invariants a virtual clock
//     cannot: zero goroutine growth, bounded heap delta, and escalation-
//     budget recovery after fault bursts.
//
// Both check the fairness invariant: no stream's calibration age may exceed
// serve.FairnessBound for the soak's observed slot occupancy.
package chaos

import (
	"fmt"
	"time"

	"adavp/internal/experiments"
	"adavp/internal/fault"
	"adavp/internal/rng"
	"adavp/internal/serve"
	"adavp/internal/video"
)

// Config parameterizes a soak. Zero-value fields take documented defaults.
type Config struct {
	// Streams is N, the number of logical stream slots. Default 8.
	Streams int
	// Slots is K, the number of shared detector slots. Default 2.
	Slots int
	// Batch configures the batching executor preset: each slot grant drains
	// up to Batch.Size compatible requests and fuses them into one batched
	// inference (serve.BatchConfig). The zero value is the unbatched pool;
	// Batch.Linger is honored by the sim soak only (the live pool is
	// work-conserving). The fairness invariant is checked against the
	// generalized serve.FairnessBoundBatched in both modes.
	Batch serve.BatchConfig
	// Rounds is the number of churn rounds a sim soak runs. Default 4.
	// (An rt soak runs rounds until WallBudget expires instead.)
	Rounds int
	// SegmentsPerStream is how many scenario segments each stream's video
	// splices per round — every boundary is a mid-stream scenario switch.
	// Default 3.
	SegmentsPerStream int
	// SegmentFrames is the length of one scenario segment. Default 60.
	SegmentFrames int
	// ChurnRate is the per-round probability that a stream slot disconnects
	// and reconnects under a new identity; half of it is the probability
	// that a slot sits a round out entirely (arrival churn). Default 0.25.
	ChurnRate float64
	// Fault, when set, injects this profile into every stream, reseeded per
	// stream so fault bursts are not synchronized across the pool. Nil runs
	// fault-free.
	Fault *fault.Profile
	// Seed derives the whole soak: churn, scenario schedule, video content,
	// pipeline randomness, fault schedules. Default 1.
	Seed uint64

	// The remaining knobs apply to SoakRT only.

	// WallBudget bounds the rt soak's wall-clock time: no new round starts
	// after it expires. Default 45s.
	WallBudget time.Duration
	// TimeScale compresses emulated latencies and the camera interval
	// (rt.Config.TimeScale). Default 0.02.
	TimeScale float64
	// DowngradeBudget and DowngradeRefill shape the shared escalation
	// budget: capacity and the pipeline-time interval that restores one
	// grant. Defaults: 4 grants, one back per 2s.
	DowngradeBudget int
	DowngradeRefill time.Duration
	// MaxHeapDelta bounds the live-heap growth a soak may leave behind
	// after GC. Default 64 MiB.
	MaxHeapDelta uint64
	// FairnessSlack is added to the fairness bound in rt mode to absorb
	// wall-clock scheduling noise (GC pauses, -race overhead) that inflates
	// calibration ages without inflating the occupancies the bound is
	// computed from. Default 250ms.
	FairnessSlack time.Duration
	// PipelineDepth, when > 1, runs the rt soak's streams on the pixel
	// pipeline (blob detector, pixel tracker) with the staged frame prefetch
	// at this depth (rt.Config.PipelineDepth via serve.RunConfig). The
	// fairness invariant is then checked with prefetch stages running
	// concurrently with the shared pool — re-verifying that prefetch never
	// changes the queue's pop order. <= 1 keeps the emulated streams.
	PipelineDepth int
}

func (c Config) withDefaults() Config {
	if c.Streams <= 0 {
		c.Streams = 8
	}
	if c.Slots <= 0 {
		c.Slots = 2
	}
	c.Batch = c.Batch.WithDefaults() // the Report echoes the effective size
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	if c.SegmentsPerStream <= 0 {
		c.SegmentsPerStream = 3
	}
	if c.SegmentFrames <= 0 {
		c.SegmentFrames = 60
	}
	if c.ChurnRate == 0 {
		c.ChurnRate = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.WallBudget <= 0 {
		c.WallBudget = 45 * time.Second
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 0.02
	}
	if c.DowngradeBudget <= 0 {
		c.DowngradeBudget = 4
	}
	if c.DowngradeRefill <= 0 {
		c.DowngradeRefill = 2 * time.Second
	}
	if c.MaxHeapDelta == 0 {
		c.MaxHeapDelta = 64 << 20
	}
	if c.FairnessSlack <= 0 {
		c.FairnessSlack = 250 * time.Millisecond
	}
	return c
}

// rngRoot returns a soak's root derivation stream; every random choice a
// soak makes derives from it.
func rngRoot(seed uint64) *rng.Stream { return rng.New(seed).DeriveString("chaos") }

// segment is one scenario stretch of a stream's spliced video.
type segment struct {
	Kind       video.Kind
	Start, End int // frame range [Start, End) in the spliced video
}

// streamPlan is one stream's round assignment: identity, spliced video,
// segment map for F1 attribution, and derived seeds.
type streamPlan struct {
	ID       string
	Slot     int
	Segments []segment
	Video    *video.Video
	Seed     uint64
	Fault    *fault.Profile
}

// churnState carries stream identities across rounds.
type churnState struct {
	gen     []int
	churned int
}

func newChurnState(streams int) *churnState {
	return &churnState{gen: make([]int, streams)}
}

// planRound builds the round's stream set. Everything is a pure function of
// (root seed, round, slot, generation): between rounds each slot churns its
// identity with probability ChurnRate (disconnect + reconnect as a new
// stream) and sits the round out with probability ChurnRate/2 (arrival
// churn), floored at two active streams. Scenario kinds stripe through a
// per-round permutation of the full kind set — benign and hostile — so every
// kind keeps appearing for as long as the soak runs.
func planRound(root *rng.Stream, cfg Config, round int, st *churnState) []streamPlan {
	if round > 0 {
		cr := root.DeriveString("churn").Derive(uint64(round))
		for i := range st.gen {
			if cr.Bool(cfg.ChurnRate) {
				st.gen[i]++
				st.churned++
			}
		}
	}
	active := make([]bool, cfg.Streams)
	n := 0
	ar := root.DeriveString("arrive").Derive(uint64(round))
	for i := range active {
		active[i] = !ar.Bool(cfg.ChurnRate / 2)
		if active[i] {
			n++
		}
	}
	for i := 0; n < 2 && i < len(active); i++ { // never soak fewer than 2 streams
		if !active[i] {
			active[i], n = true, n+1
		}
	}

	every := video.EveryKind()
	perm := root.DeriveString("kinds").Derive(uint64(round)).Perm(len(every))
	next := 0

	plans := make([]streamPlan, 0, n)
	for slot := 0; slot < cfg.Streams; slot++ {
		if !active[slot] {
			continue
		}
		gen := st.gen[slot]
		id := fmt.Sprintf("s%d.g%d", slot, gen)
		p := streamPlan{
			ID:   id,
			Slot: slot,
			Seed: root.Derive(uint64(round), uint64(slot), uint64(gen)).DeriveString("stream").Uint64(),
		}
		parts := make([]*video.Video, cfg.SegmentsPerStream)
		for s := 0; s < cfg.SegmentsPerStream; s++ {
			k := every[perm[next%len(every)]]
			next++
			seed := root.Derive(uint64(round), uint64(slot), uint64(gen), uint64(s)).DeriveString("video").Uint64()
			parts[s] = video.GenerateKind(fmt.Sprintf("%s/%s", id, k), k, seed, cfg.SegmentFrames)
			p.Segments = append(p.Segments, segment{Kind: k, Start: s * cfg.SegmentFrames, End: (s + 1) * cfg.SegmentFrames})
		}
		p.Video = video.Splice(fmt.Sprintf("%s.r%d", id, round), parts...)
		if cfg.Fault != nil {
			fp := *cfg.Fault
			fp.Seed ^= root.Derive(uint64(round), uint64(slot), uint64(gen)).DeriveString("fault").Uint64()
			p.Fault = &fp
		}
		plans = append(plans, p)
	}
	return plans
}

// f1Acc accumulates per-scenario-kind frame F1 across rounds and streams.
type f1Acc struct {
	sum map[video.Kind]float64
	n   map[video.Kind]int
}

func newF1Acc() *f1Acc {
	return &f1Acc{sum: map[video.Kind]float64{}, n: map[video.Kind]int{}}
}

// add attributes a stream's per-frame F1 back to the scenario kinds of its
// spliced segments.
func (a *f1Acc) add(p streamPlan, f1 []float64) {
	for _, seg := range p.Segments {
		for i := seg.Start; i < seg.End && i < len(f1); i++ {
			a.sum[seg.Kind] += f1[i]
			a.n[seg.Kind]++
		}
	}
}

// minFloorFrames gates floor enforcement: a kind sampled with fewer frames
// than this carries too much small-sample noise for a meaningful mean (one
// starved 40-frame segment would fail any floor).
const minFloorFrames = 150

// scenarios renders the accumulator into sorted report rows, enforcing the
// experiments floors (on sufficiently sampled kinds) when enforce is set.
func (a *f1Acc) scenarios(enforce bool, violations *[]string) []ScenarioF1 {
	out := make([]ScenarioF1, 0, len(a.n))
	for _, k := range video.EveryKind() {
		n := a.n[k]
		if n == 0 {
			continue
		}
		row := ScenarioF1{Kind: k, Frames: n, MeanF1: a.sum[k] / float64(n), Floor: experiments.F1Floor(k)}
		if enforce && n >= minFloorFrames && row.MeanF1 < row.Floor {
			*violations = append(*violations,
				fmt.Sprintf("scenario %s: mean F1 %.3f below floor %.2f over %d frames", k, row.MeanF1, row.Floor, n))
		}
		out = append(out, row)
	}
	return out
}
