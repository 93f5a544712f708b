package serve

import "time"

// BatchGamma is the calibrated marginal cost of fusing one more compatible
// request into a batched inference, as a fraction of the single-request
// latency: a batch of b requests at the same setting completes in
//
//	BatchLatency(single, b) = single × (1 + BatchGamma×(b-1))
//
// The sub-linear shape is the standard GPU serving model — a fixed per-batch
// cost (weight loads, kernel launches, scheduling) is amortized across the
// batch while the per-item cost is dominated by memory-bound layers — and is
// what ApproxDet/Virtuoso-style contention schedulers exploit. 0.25 matches
// the calibrated single-request latency table in internal/core (DESIGN.md
// §16 documents the calibration): batch 4 costs 1.75× a single inference,
// i.e. 2.3× the per-request throughput of four serial grants.
const BatchGamma = 0.25

// BatchConfig parameterizes the batching executor of both schedulers: the
// live Pool and the virtual-clock RunVirtual.
type BatchConfig struct {
	// Size is B, the maximum number of compatible requests (same model
	// setting) one slot grant drains from the wait queue and executes as a
	// single batched inference. Values < 1 are treated as 1 — the degenerate
	// one-request-per-grant executor, byte-identical to the pre-batching
	// scheduler.
	Size int
	// Linger is the longest a partially-filled batch may hold its slot
	// waiting for more compatible arrivals before executing. Only the
	// scheduler that owns a clock honors it: RunVirtual (and so sim.RunMulti
	// and the load generator) models it exactly, while the live Pool is
	// work-conserving and never lingers — it reads no clock, so a live grant
	// executes whatever compatible prefix is queued at release time. Zero
	// (the default) disables lingering everywhere.
	Linger time.Duration
}

// WithDefaults clamps the configuration into its valid range (Size >= 1,
// Linger >= 0). Pool and RunVirtual apply it themselves; a caller needs it
// only to echo the effective values.
func (b BatchConfig) WithDefaults() BatchConfig {
	if b.Size < 1 {
		b.Size = 1
	}
	if b.Linger < 0 {
		b.Linger = 0
	}
	return b
}

// BatchLatency returns the modeled duration of one batched inference: the
// longest member's single-request duration stretched by the calibrated
// sub-linear batch cost. b < 1 is clamped to 1, so BatchLatency(d, 1) == d
// exactly — the degenerate pin the parity tests assert.
func BatchLatency(single time.Duration, b int) time.Duration {
	if b < 1 {
		b = 1
	}
	return single + time.Duration(float64(single)*BatchGamma*float64(b-1))
}

// FairnessBoundBatched generalizes FairnessBound to the batching executor:
// the worst-case calibration age of any stream when N streams share K slots
// whose grants drain up to `batch` compatible requests each, with
// maxOccupancy the longest *single-request* occupancy (setting-switch
// overhead plus one inference) and linger the batching executor's fill
// timeout (zero for the work-conserving live pool).
//
// Derivation (DESIGN.md §16 has the full sketch): AppendBatch drains a strict
// prefix of the oldest-calibration-first pop order, so every request granted
// before ours is one Pop would also have granted before ours — batching
// never reorders, and the PR 5 round-count argument survives verbatim: after
// our stream re-requests, each of the N-1 other streams is served at most
// once before us, costing ceil((N-1)/K) slot-grant spans on K
// work-conserving slots, plus one residual grant already in flight and our
// own. What changes is the worst-case span of one grant: a full batch
// stretches its slot to BatchLatency(maxOccupancy, batch), and a lingering
// executor may additionally hold the slot idle for up to linger before
// executing. Joining a batch only ever serves a request *earlier* than its
// solo grant, so the bound is safe for every mix of settings — the all-
// singleton worst case (total skew) is exactly the B=1 bound plus linger:
//
//	age ≤ (ceil((N-1)/K) + 2) × (BatchLatency(maxOccupancy, batch) + linger) + frameInterval
//
// With batch ≤ 1 and linger 0 this reduces term-for-term to FairnessBound,
// which the degenerate-pin test asserts as exact equality.
func FairnessBoundBatched(streams, slots, batch int, maxOccupancy, frameInterval, linger time.Duration) time.Duration {
	if streams < 1 {
		streams = 1
	}
	if slots < 1 {
		slots = 1
	}
	if linger < 0 {
		linger = 0
	}
	rounds := (streams - 1 + slots - 1) / slots
	span := BatchLatency(maxOccupancy, batch) + linger
	return time.Duration(rounds+2)*span + frameInterval
}
