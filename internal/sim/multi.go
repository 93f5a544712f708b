// Multi-stream serving on the virtual clock: the deterministic counterpart
// of internal/serve's live pool. N independent AdaVP/MPDT streams share K
// detector slots; the scheduling itself — admission, the oldest-calibration-
// first serve.FairQueue the live pool also uses, batch drain, linger — is
// serve.RunVirtual, and this file is its engine-running client. Everything —
// grants, waits, deferrals — derives from the virtual clock, so two same-seed
// runs are byte-identical.
package sim

import (
	"fmt"
	"time"

	"adavp/internal/obs"
	"adavp/internal/serve"
	"adavp/internal/video"
)

// MultiStream describes one stream of a multi-stream run.
type MultiStream struct {
	// ID names the stream; required, unique. Labels every published obs
	// series (stream=<id>).
	ID string
	// Video is the stream's input; required.
	Video *video.Video
	// Config is the stream's pipeline configuration. Policy must be
	// PolicyAdaVP or PolicyMPDT (the parallel policies — the baselines have
	// no calibration cycle to schedule). Obs is overridden by the scheduler,
	// which also labels the stream's series with ID.
	Config Config
}

// MultiConfig parameterizes the shared detector pool.
type MultiConfig struct {
	// Slots is K, the number of concurrent detector slots. Default 1.
	Slots int
	// QueueBound caps the number of detection requests waiting for a slot.
	// A stream that cannot enqueue is deferred: it keeps tracking against
	// its previous calibration and retries one frame interval later
	// (backpressure — staleness grows instead of memory). Default: number
	// of streams, which never overflows.
	QueueBound int
	// Batch configures the batching executor: each slot grant drains up to
	// Batch.Size compatible requests (same model setting) from the wait
	// queue and fuses them into one batched inference lasting
	// serve.BatchLatency(longest member span, members). Batch.Linger lets a
	// partially-filled batch hold its slot for arrivals already due inside
	// the linger window (serve.RunVirtual). The zero value (Size 0 → 1,
	// Linger 0) is the unbatched scheduler.
	Batch serve.BatchConfig
	// Obs, when set, receives every stream's telemetry under the shared
	// schema with stream=<id> labels, plus the aggregate scheduler series:
	// queue depth gauge, per-stream slot-wait histograms and deferral
	// counters.
	Obs *obs.Registry
	// PipelineDepth models the live path's staged prefetch: while a granted
	// request waited for its slot, the stream's tracker ring kept rendering
	// planned frames. Pure accounting — timing and grant order are
	// byte-identical with the field unset: each grant banks
	// min(wait/frameInterval, PipelineDepth) frames into the per-stream
	// MetricPrefetchedWaiting counter, an upper estimate of the live count,
	// which stops at depth-1 ahead or at the cycle's end and starts only at
	// the stream's third detection. <= 1 disables.
	PipelineDepth int
}

// StreamOutcome is one stream's result plus its scheduling accounting.
type StreamOutcome struct {
	// ID echoes the stream's identifier.
	ID string
	// Result is the stream's completed run, exactly as single-stream Run
	// would return it (same schema, same evaluation).
	Result *Result
	// Grants counts detector-slot grants (completed cycles, including the
	// terminal empty one).
	Grants int
	// Deferred counts detections deferred by the bounded queue: a pending
	// request refused across consecutive retry attempts counts once, when the
	// streak starts — frames, not retries.
	Deferred int
	// MaxWait is the longest a granted request waited for a slot.
	MaxWait time.Duration
	// MaxOccupancy is the stream's longest slot occupancy from grant to
	// release (setting-switch overhead plus the possibly-batched detection,
	// including any linger the grant absorbed).
	MaxOccupancy time.Duration
	// MaxCalibAge is the longest gap between consecutive calibration
	// completions (the first measured from time zero). The fairness
	// guarantee: MaxCalibAge never exceeds serve.FairnessBoundBatched for
	// the run's observed occupancy.
	MaxCalibAge time.Duration
	// PrefetchedWhileWaiting counts frames the stream's modeled prefetch
	// stage built while its requests waited for a slot (capped at
	// MultiConfig.PipelineDepth per grant). Zero when PipelineDepth <= 1.
	PrefetchedWhileWaiting int
}

// MultiResult is a completed multi-stream run.
type MultiResult struct {
	// Streams holds one outcome per input stream, in input order.
	Streams []StreamOutcome
	// MaxQueueDepth is the deepest the wait queue ever got.
	MaxQueueDepth int
	// MaxOccupancy is the longest grant-to-release slot occupancy across all
	// streams (batched: the whole fused batch plus any linger).
	MaxOccupancy time.Duration
	// MaxSingleOccupancy is the longest *single-request* span (setting-switch
	// overhead plus one unbatched inference) across all grants — the
	// maxOccupancy term to feed serve.FairnessBoundBatched. Equal to
	// MaxOccupancy when batching is off.
	MaxSingleOccupancy time.Duration
	// Batches counts slot grants; each drained one batch of compatible
	// requests from the queue.
	Batches int
	// MaxBatch is the largest number of requests one grant fused.
	MaxBatch int
	// SlotUtilization is the fraction of total slot-time (Slots x the run's
	// busy horizon) the slots spent executing grants — the figure the
	// MetricSlotUtilization gauge publishes at run end.
	SlotUtilization float64
}

// mstream is one stream's engine-side state; serve.RunVirtual owns its
// request state (when it asked, whether it is queued or retired).
type mstream struct {
	id string
	e  *engine
	st *parallelState
	// deferring marks a pending request already counted as deferred: the
	// refusal→retry loop re-attempts the same detection at successive frame
	// intervals, and the deferral counter counts the deferred detection once,
	// not once per retry. Cleared when the request is finally granted.
	deferring bool
	lastCalib time.Duration
	plan      cyclePlan // the granted cycle, between Plan and Complete
	out       StreamOutcome
}

// multiRun is RunMulti's side of serve.VirtualStreams: each grant plans and
// then executes one engine cycle.
type multiRun struct {
	ms    []*mstream
	obs   *obs.Registry
	depth int // MultiConfig.PipelineDepth
}

// Key enqueues with the model setting the stream's next grant will run at
// absent a post-grant adaptation switch — the batch compatibility key.
func (r *multiRun) Key(i int) serve.Request {
	m := r.ms[i]
	return serve.Request{Stream: m.id, Setting: m.st.setting, LastCalib: m.lastCalib}
}

// Refused defers the stream by one frame interval: its tracker keeps
// extrapolating against the previous calibration meanwhile. One pending
// detection refused across any number of retries is ONE deferred detection:
// count the frame, not the retries (the deferring flag spans the streak).
func (r *multiRun) Refused(i int, at time.Duration) (time.Duration, bool) {
	m := r.ms[i]
	if !m.deferring {
		m.deferring = true
		m.out.Deferred++
		if r.obs != nil {
			r.obs.Counter(obs.MetricDetectDeferred, obs.L("stream", m.id)).Inc()
		}
	}
	return at + m.e.delta, true
}

// Plan plans the stream's next cycle at its grant time. While it waited its
// engine was simply not advanced, so all the frames captured during the wait
// show up as buffered frames for its tracker.
func (r *multiRun) Plan(i int, requested, grant time.Duration) (time.Duration, bool) {
	m := r.ms[i]
	m.deferring = false
	wait := grant - requested
	m.plan = m.e.planCycle(m.st, grant)
	m.out.Grants++
	m.out.MaxWait = max(m.out.MaxWait, wait)
	if r.obs != nil {
		r.obs.Histogram(obs.MetricSlotWait, obs.DefLatencyBuckets, obs.L("stream", m.id)).ObserveDuration(wait)
	}
	// The staged-prefetch model: while the request waited, the stream's
	// tracker ring kept rendering — one frame per interval, at most
	// PipelineDepth (an upper estimate, see MultiConfig.PipelineDepth).
	// Pure accounting: nothing about the schedule changes.
	if banked := min(int(wait/m.e.delta), r.depth); banked > 0 && r.depth > 1 {
		m.out.PrefetchedWhileWaiting += banked
		if r.obs != nil {
			r.obs.Counter(obs.MetricPrefetchedWaiting, obs.L("stream", m.id)).Add(int64(banked))
			r.obs.Gauge(obs.MetricFramesInFlightWaiting, obs.L("stream", m.id)).Set(float64(banked))
		}
	}
	span := m.plan.span()
	if m.plan.done {
		// Video exhausted: no detection — the member leaves after at most a
		// setting-switch residue and never re-requests.
		m.out.MaxOccupancy = max(m.out.MaxOccupancy, span)
		m.e.run.Duration = max(m.plan.now, time.Duration(m.e.v.NumFrames())*m.e.delta)
	}
	return span, !m.plan.done
}

// Complete executes the planned cycle against the fused batch's end,
// accounts the calibration's age and re-requests for the next cycle
// immediately (the live pipeline's detector loop likewise turns around as
// soon as a newer frame exists).
func (r *multiRun) Complete(i int, requested, grant, end time.Duration) (time.Duration, bool) {
	m := r.ms[i]
	m.e.execCycle(m.st, m.plan, end)
	occupancy := end - grant
	m.out.MaxOccupancy = max(m.out.MaxOccupancy, occupancy)
	if r.obs != nil {
		r.obs.Histogram(obs.MetricSlotExec, obs.DefLatencyBuckets, obs.L("stream", m.id)).ObserveDuration(occupancy)
	}
	m.out.MaxCalibAge = max(m.out.MaxCalibAge, end-m.lastCalib)
	m.lastCalib = end
	return end, true
}

// RunMulti executes N streams against K shared detector slots on the virtual
// clock, as a client of serve.RunVirtual — the scheduler: work-conserving,
// deterministic, oldest calibration first (FIFO among ties, stream input
// order among simultaneous arrivals). A panicking detector is recovered into
// an error; a tracker panic is recovered in place, as in Run.
func RunMulti(streams []MultiStream, cfg MultiConfig) (res *MultiResult, err error) {
	if err := serve.CheckStreams(len(streams), func(i int) (string, *video.Video) { return streams[i].ID, streams[i].Video }); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	run := &multiRun{ms: make([]*mstream, len(streams)), obs: cfg.Obs, depth: cfg.PipelineDepth}
	for i, s := range streams {
		c := s.Config.withDefaults()
		if c.Policy != PolicyAdaVP && c.Policy != PolicyMPDT {
			return nil, fmt.Errorf("sim: stream %q: multi-stream runs schedule the parallel policies (AdaVP, MPDT), got %v", s.ID, c.Policy)
		}
		c.Obs = cfg.Obs
		c.streamLabel = s.ID
		e := newEngine(s.Video, c)
		run.ms[i] = &mstream{id: s.ID, e: e, st: e.newParallelState(), out: StreamOutcome{ID: s.ID}}
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("sim: pipeline component panicked: %v", r)
		}
	}()

	cfg.Obs.Gauge(obs.MetricStreams).Set(float64(len(streams)))
	// Every stream asks for its first cycle at time zero.
	sched := serve.RunVirtual(make([]time.Duration, len(streams)), run, serve.VirtualConfig{
		Slots: cfg.Slots, QueueBound: cfg.QueueBound, Batch: cfg.Batch, Obs: cfg.Obs,
	})
	result := &MultiResult{
		Streams:            make([]StreamOutcome, len(streams)),
		MaxQueueDepth:      sched.PeakQueueDepth,
		MaxOccupancy:       sched.MaxOccupancy,
		MaxSingleOccupancy: sched.MaxSingleSpan,
		Batches:            sched.Batches,
		MaxBatch:           sched.MaxBatch,
	}
	if sched.Horizon > 0 {
		result.SlotUtilization = float64(sched.Busy) / (float64(max(cfg.Slots, 1)) * float64(sched.Horizon))
		cfg.Obs.Gauge(obs.MetricSlotUtilization).Set(result.SlotUtilization)
	}
	for i, m := range run.ms {
		m.out.Result = m.e.finish()
		result.Streams[i] = m.out
	}
	return result, nil
}
