package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

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
	// Budget, when set, is the guard escalation budget every stream's
	// supervisor draws fault-escalation downgrades from, so a correlated
	// fault burst cannot walk every stream down to the smallest model at
	// once. Nil means unlimited. The caller owns it: the facade builds one
	// per run, the chaos soak keeps one across many serving rounds.
	Budget *guard.EscalationBudget
	// Obs, when set, receives every stream's telemetry (series labeled
	// stream=<id>) plus the aggregate queue-depth gauge and stream count.
	Obs *obs.Registry
	// PipelineDepth is the default per-stream frame-prefetch depth
	// (rt.Config.PipelineDepth) applied to every stream that leaves its own
	// depth zero. With depth > 1 a stream blocked in Pool.Acquire keeps its
	// tracker's ring rendering the planned frames of the cycle in progress,
	// so another stream's detect sleep overlaps its builds. Prefetch never
	// touches the pool or the wait queue, so grant order — and the fairness
	// bound — are unchanged. <= 1 leaves the streams sequential.
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

// CheckStreams validates a stream set of n streams, where stream(i) returns
// stream i's ID and video: there is at least one stream, and every stream
// has a non-empty ID no other stream shares and a non-empty video. Run and
// sim.RunMulti both call it and prefix its errors with their package name.
func CheckStreams(n int, stream func(i int) (id string, v *video.Video)) error {
	if n == 0 {
		return errors.New("no streams")
	}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		id, v := stream(i)
		if id == "" {
			return fmt.Errorf("stream %d: empty ID", i)
		}
		if seen[id] {
			return fmt.Errorf("duplicate stream ID %q", id)
		}
		seen[id] = true
		if v == nil || v.NumFrames() == 0 {
			return fmt.Errorf("stream %q: empty video", id)
		}
	}
	return nil
}

// Run executes N live streams against K shared detector slots: the stream
// set is checked up front (CheckStreams; the admission cap is the facade's),
// then one supervised rt pipeline per stream runs, all blocking on the same
// Pool, publishing into the same registry under stream=<id> labels, and
// drawing downgrades from cfg.Budget. It returns
// when every stream has finished (or, under cancellation, drained).
func Run(ctx context.Context, streams []StreamSpec, cfg RunConfig) (*RunResult, error) {
	if err := CheckStreams(len(streams), func(i int) (string, *video.Video) { return streams[i].ID, streams[i].Video }); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = len(streams)
	}
	cfg.Obs.Gauge(obs.MetricStreams).Set(float64(len(streams)))
	pool := NewBatchPool(cfg.Slots, cfg.QueueBound, cfg.Batch, cfg.Obs)

	res := &RunResult{Streams: make([]StreamResult, len(streams))}
	var wg sync.WaitGroup
	for i, s := range streams {
		c := s.Config
		c.Obs = cfg.Obs
		c.StreamID = s.ID
		c.Slots = pool
		c.Guard.Budget = cfg.Budget
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
