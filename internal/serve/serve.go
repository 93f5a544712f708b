package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"adavp/internal/guard"
	"adavp/internal/obs"
	"adavp/internal/rt"
	"adavp/internal/video"
)

// StreamSpec describes one live stream: an input video plus its pipeline
// configuration. Each stream gets its own tracker, adaptation state, guard
// supervisor, fault schedule and seed — only the detector slots, the
// escalation budget and the observability registry are shared.
type StreamSpec struct {
	// ID names the stream; required, unique per run. Labels every published
	// series (stream=<id>).
	ID string
	// Video is the stream's input; required.
	Video *video.Video
	// Config is the stream's rt pipeline configuration. Obs, StreamID,
	// Slots and Guard.Budget are overridden by the runner.
	Config rt.Config
}

// RunConfig parameterizes the shared serving layer.
type RunConfig struct {
	// Slots is K, the number of concurrent detector slots shared by all
	// streams. Default 1.
	Slots int
	// QueueBound caps the detector wait queue; a stream that cannot enqueue
	// skips the detection and keeps tracking (backpressure). Default: the
	// number of streams, which never refuses.
	QueueBound int
	// Batch configures the batching executor: each slot grant drains up to
	// Batch.Size compatible requests (same model setting) from the wait queue
	// and runs them as one fused inference. The zero value (Size 0 → 1) is
	// the pre-batching one-request-per-grant pool. The live pool is
	// work-conserving and ignores Batch.Linger (serve owns no clock).
	Batch BatchConfig
	// MaxStreams is the admission-control cap: stream sets larger than this
	// are rejected up front. 0 means unlimited.
	MaxStreams int
	// DowngradeBudget bounds the number of guard fault-escalation downgrades
	// across ALL streams, so a correlated fault burst cannot walk every
	// stream down to the smallest model at once. 0 means unlimited.
	DowngradeBudget int
	// DowngradeRefill, when positive alongside DowngradeBudget, restores one
	// downgrade grant per interval of pipeline time, saturating at the
	// budget — so the system regains escalation headroom once a fault burst
	// ends instead of staying one-shot for the rest of the run.
	DowngradeRefill time.Duration
	// Budget, when set, overrides the internally constructed escalation
	// budget (DowngradeBudget/DowngradeRefill are then ignored). The chaos
	// soak uses this to own one budget across many serving rounds and assert
	// it recovers after fault bursts.
	Budget *guard.EscalationBudget
	// Obs, when set, receives every stream's telemetry (series labeled
	// stream=<id>) plus the aggregate queue-depth gauge and stream count.
	Obs *obs.Registry
	// PipelineDepth is the default per-stream frame-prefetch depth
	// (rt.Config.PipelineDepth) applied to every stream that leaves its own
	// depth zero. With depth > 1 a stream blocked in Pool.Acquire keeps its
	// prefetch stage rendering upcoming frames, so another stream's detect
	// sleep overlaps its builds. Prefetch never touches the pool or the wait
	// queue, so grant order — and the fairness bound — are unchanged. <= 1
	// leaves the streams sequential.
	PipelineDepth int
}

// StreamResult pairs one stream's outcome with any error its pipeline
// returned (a cancelled run carries both: the partial result and the error).
type StreamResult struct {
	ID     string
	Result *rt.Result
	Err    error
}

// RunResult is a completed multi-stream live run, in input-stream order.
type RunResult struct {
	Streams []StreamResult
	// Stats is the pool's final per-stage pipeline accounting
	// (admit → queue → batch → detect → publish).
	Stats StatsSnapshot
}

// Run executes N live streams against K shared detector slots: admission
// control up front, then one supervised rt pipeline per stream, all blocking
// on the same Pool, publishing into the same registry under stream=<id>
// labels, and drawing downgrades from the same escalation budget. It returns
// when every stream has finished (or, under cancellation, drained).
func Run(ctx context.Context, streams []StreamSpec, cfg RunConfig) (*RunResult, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("serve: no streams")
	}
	if cfg.MaxStreams > 0 && len(streams) > cfg.MaxStreams {
		return nil, fmt.Errorf("serve: %d streams exceed the admission cap %d", len(streams), cfg.MaxStreams)
	}
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	bound := cfg.QueueBound
	if bound <= 0 {
		bound = len(streams)
	}
	seen := make(map[string]bool, len(streams))
	for i, s := range streams {
		if s.ID == "" {
			return nil, fmt.Errorf("serve: stream %d: empty ID", i)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("serve: duplicate stream ID %q", s.ID)
		}
		seen[s.ID] = true
		if s.Video == nil || s.Video.NumFrames() == 0 {
			return nil, fmt.Errorf("serve: stream %q: empty video", s.ID)
		}
	}

	budget := cfg.Budget
	if budget == nil && cfg.DowngradeBudget > 0 {
		if cfg.DowngradeRefill > 0 {
			budget = guard.NewEscalationBudgetWithRefill(cfg.DowngradeBudget, cfg.DowngradeRefill)
		} else {
			budget = guard.NewEscalationBudget(cfg.DowngradeBudget)
		}
	}
	if cfg.Obs != nil {
		cfg.Obs.Gauge(obs.MetricStreams).Set(float64(len(streams)))
	}
	pool := NewBatchPool(cfg.Slots, bound, cfg.Batch, cfg.Obs)

	res := &RunResult{Streams: make([]StreamResult, len(streams))}
	var wg sync.WaitGroup
	for i, s := range streams {
		c := s.Config
		c.Obs = cfg.Obs
		c.StreamID = s.ID
		c.Slots = pool
		c.Guard.Budget = budget
		if c.PipelineDepth == 0 {
			c.PipelineDepth = cfg.PipelineDepth
		}
		wg.Add(1)
		go func(i int, s StreamSpec, c rt.Config) {
			defer wg.Done()
			r, err := rt.Run(ctx, s.Video, c) //adavp:detrand-ok rt owns the pacing clock; serve's own outputs stay deterministic per stream seed
			res.Streams[i] = StreamResult{ID: s.ID, Result: r, Err: err}
		}(i, s, c)
	}
	wg.Wait()
	res.Stats = pool.Stats()
	return res, nil
}
