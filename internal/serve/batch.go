package serve

import (
	"flag"
	"fmt"
	"strconv"
	"time"
)

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
	// Linger bounds how long a partially-filled batch may hold its slot for
	// more compatible arrivals. Only RunVirtual (and so sim.RunMulti and the
	// load generator) applies it, and only to arrivals it knows are coming:
	// the grant slips to each request issued inside the window, and the
	// window is never waited out, so a lone request is granted at once. The
	// live Pool reads no clock and never lingers: a live grant executes
	// whatever compatible prefix is queued at release time. Zero (the
	// default) disables lingering everywhere.
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

// BatchFlags registers -batch-size and -batch-timeout on fs, writing into b,
// and sets b.Size to 1, the unbatched default. Both validate at parse time:
// an out-of-range value fails the parse with an error naming the valid range
// instead of surviving until the run starts.
func BatchFlags(fs *flag.FlagSet, b *BatchConfig) {
	b.Size = 1
	fs.Func("batch-size", "detector batch capacity B: one slot grant fuses up to B same-setting requests (integer in 1..64; default 1, unbatched)", func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > 64 {
			return fmt.Errorf("batch size %q out of range (use an integer in 1..64)", s)
		}
		b.Size = n
		return nil
	})
	fs.Func("batch-timeout", "how long a partial batch may wait for compatible arrivals already due inside the window (positive duration, e.g. 5ms|20ms; applied by virtual-clock runs — the live pool is work-conserving)", func(s string) error {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return fmt.Errorf("batch timeout %q is not a positive duration (use e.g. 5ms, 20ms)", s)
		}
		b.Linger = d
		return nil
	})
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

// FairnessBoundBatched returns the documented worst-case calibration age of
// any stream under the oldest-calibration-first policy, when N streams share
// K work-conserving slots whose grants drain up to `batch` compatible
// requests each, with maxOccupancy the longest *single-request* occupancy
// (setting-switch overhead plus one inference), frameInterval the capture
// interval and linger the batching executor's fill timeout (zero for the
// work-conserving live pool).
//
// Derivation (DESIGN.md §12 and §16.2): when a stream completes a calibration
// at time T it re-requests within one frame interval. Any other stream
// granted a slot after T leaves with a calibration newer than T, so strict
// oldest-first ordering serves each of the N-1 other streams at most once
// before this one, costing ceil((N-1)/K) slot-grant spans on K
// work-conserving slots, plus one residual grant already in flight and the
// stream's own. AppendBatch drains a strict prefix of the pop order, so every
// request granted before ours is one Pop would also have granted before ours:
// batching never reorders. What it changes is the worst-case span of one
// grant: a full batch stretches its slot to BatchLatency(maxOccupancy, batch),
// and a lingering executor may additionally hold the slot idle for up to
// linger before executing. Joining a batch only ever serves a request
// *earlier* than its solo grant, so the bound is safe for every mix of
// settings:
//
//	age ≤ (ceil((N-1)/K) + 2) × (BatchLatency(maxOccupancy, batch) + linger) + frameInterval
//
// With batch ≤ 1 and linger 0 the span is exactly maxOccupancy
// (BatchLatency(d, 1) ≡ d): the unbatched bound, which the multi-stream tests
// (internal/sim) assert observed calibration ages against.
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
