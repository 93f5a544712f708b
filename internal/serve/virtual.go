package serve

import (
	"math"
	"time"

	"adavp/internal/obs"
)

// VirtualStreams is how RunVirtual reaches the streams it schedules, by
// index. The loop owns every stream's request state (when it asked, whether
// it is queued or retired); the implementation owns what a grant means —
// sim.RunMulti plans and executes engine cycles, the load generator draws
// occupancies and rolls through churn windows.
type VirtualStreams interface {
	// Key returns the request stream i enqueues with: its label, its batch
	// compatibility setting and its fairness key. Index is the loop's.
	Key(i int) Request
	// Refused reports that the queue was full when stream i asked at `at`.
	// It returns when the stream asks again, which must be later than at;
	// ok false retires the stream instead.
	Refused(i int, at time.Duration) (retry time.Duration, ok bool)
	// Plan grants stream i, which asked at requested, a share of a slot at
	// grant — one instant for the whole batch, never before any member
	// asked. It returns the request's single-request span (setting-switch
	// overhead plus one unbatched inference) and whether a detection runs.
	// A member that does not detect leaves the slot after span and retires.
	Plan(i int, requested, grant time.Duration) (span time.Duration, detects bool)
	// Complete reports that the fused batch stream i detected in, granted at
	// grant, ended at end. It returns when the stream asks next; ok false
	// retires it.
	Complete(i int, requested, grant, end time.Duration) (next time.Duration, ok bool)
}

// VirtualConfig parameterizes RunVirtual.
type VirtualConfig struct {
	// Slots is K, the number of detector slots; values < 1 mean 1.
	Slots int
	// QueueBound caps the wait queue; values <= 0 mean one entry per stream,
	// which never refuses.
	QueueBound int
	// Batch is the batching executor's configuration. Linger is honored
	// exactly: the loop owns the clock.
	Batch BatchConfig
	// Obs, when set, receives the queue-depth gauge and the batch-size
	// histogram, the two aggregate series Pool publishes.
	Obs *obs.Registry
}

// VirtualResult is the scheduler-level accounting of one RunVirtual.
type VirtualResult struct {
	// Batches counts slot grants, Granted their members and MaxBatch the
	// largest number of requests one grant fused.
	Batches, Granted, MaxBatch int
	// PeakQueueDepth is the deepest the wait queue got.
	PeakQueueDepth int
	// MaxSingleSpan is the longest single-request span any Plan returned —
	// the maxOccupancy term of FairnessBoundBatched.
	MaxSingleSpan time.Duration
	// MaxOccupancy is the longest one grant held its slot: the fused batch,
	// or a member's own span if nothing in it detected.
	MaxOccupancy time.Duration
	// Busy is the slot-time spent on grants and Horizon the last slot release.
	Busy, Horizon time.Duration
}

// never is the due time of a stream with no request to admit: it is queued,
// executing or retired.
const never = time.Duration(math.MaxInt64)

// virtual is RunVirtual's state: flat per-stream slices, so the admission
// scan is one comparison per stream and touches no stream object.
type virtual struct {
	streams VirtualStreams
	q       *FairQueue
	due     []time.Duration // when stream i's next request is issued, or never
	asked   []time.Duration // when stream i's admitted request was issued
	depth   *obs.Gauge
	sizes   *obs.Histogram
	res     VirtualResult
}

// RunVirtual is the virtual-clock twin of Pool: the same FairQueue policy
// and batch formation, driven by a clock the loop owns instead of by
// goroutines blocking on a mutex. streams[i] first asks at start[i]. At every
// step the earliest-free slot (lowest index among ties) admits every request
// issued by its free time, in (request time, index) order; if nothing waits
// it idles forward to the next arrival. It then drains one batch — the
// oldest-calibration-first head plus its same-setting prefix, up to
// Batch.Size — and, when Batch.Linger is set and the batch is short, holds the
// slot for compatible arrivals inside the window, the grant slipping to each
// arrival's request time. Incompatible arrivals stay queued and an
// incompatible head stops the drain, so lingering never reorders grants. A
// batch is granted at one instant, no earlier than any member asked
// (execute). The run ends when nothing is queued and every stream has
// retired. Deterministic: no clock is read and no map is ranged over.
func RunVirtual(start []time.Duration, streams VirtualStreams, cfg VirtualConfig) VirtualResult {
	batch := cfg.Batch.WithDefaults()
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = len(start)
	}
	v := &virtual{
		streams: streams,
		q:       NewFairQueue(cfg.QueueBound),
		due:     append([]time.Duration(nil), start...),
		asked:   make([]time.Duration, len(start)),
		depth:   cfg.Obs.Gauge(obs.MetricQueueDepth),
		sizes:   cfg.Obs.Histogram(obs.MetricBatchSize, obs.BatchSizeBuckets),
	}
	free := make([]time.Duration, cfg.Slots)
	var members []Request
	for {
		si := 0
		for i := 1; i < len(free); i++ {
			if free[i] < free[si] {
				si = i
			}
		}
		t := free[si]
		next := v.admit(t)
		if v.q.Len() == 0 {
			if next == never {
				break
			}
			t = next // nothing is asking yet: the slot idles to the next arrival
			next = v.admit(t)
		}
		members = v.q.AppendBatch(members[:0], batch.Size, nil)
		for deadline := t + batch.Linger; len(members) < batch.Size && next <= deadline; {
			t = next
			next = v.admit(t)
			members = v.q.AppendBatch(members, batch.Size, nil)
		}
		v.noteDepth()
		free[si] = v.execute(members, t)
	}
	return v.res
}

// noteDepth tracks the queue's peak depth and mirrors its level to the gauge.
func (v *virtual) noteDepth() {
	v.res.PeakQueueDepth = max(v.res.PeakQueueDepth, v.q.Len())
	v.depth.Set(float64(v.q.Len()))
}

// admit moves every request issued by t into the wait queue, in (request
// time, index) order so simultaneous arrivals enqueue deterministically, and
// returns when the next one after t is issued (never if no stream has one). A
// full queue refuses: the stream retries when its Refused callback says, or
// retires.
func (v *virtual) admit(t time.Duration) (next time.Duration) {
	for {
		i := -1
		next = never
		for j, at := range v.due {
			if at < next { // strictly: the lowest index wins among equal times
				i, next = j, at
			}
		}
		if next > t {
			break
		}
		r := v.streams.Key(i)
		r.Index = i
		if v.q.Push(r) {
			v.asked[i], v.due[i] = next, never
		} else {
			v.due[i] = dueAt(v.streams.Refused(i, next))
		}
	}
	v.noteDepth()
	return next
}

// dueAt turns a callback's (time, ok) answer into a due time.
func dueAt(at time.Duration, ok bool) time.Duration {
	if !ok {
		return never
	}
	return at
}

// execute grants one drained batch a slot that is free at t and returns when
// the slot frees again. Every member is planned in batch order, the
// detecting members' spans fuse through BatchLatency, and then every
// detecting member is completed in batch order against the shared end — so a
// client's random draws keep their place whatever the batch size.
func (v *virtual) execute(members []Request, t time.Duration) time.Duration {
	v.res.Batches++
	v.res.Granted += len(members)
	v.res.MaxBatch = max(v.res.MaxBatch, len(members))
	v.sizes.Observe(float64(len(members)))

	// A slot that idled forward or lingered admitted everything issued by
	// its own, later, clock, and a slot freed before that finds those
	// requests still queued: it idles until the last of its members has
	// asked, so a grant never precedes a request it serves.
	for _, r := range members {
		t = max(t, v.asked[r.Index])
	}
	end := t
	var maxSpan time.Duration
	detecting := members[:0]
	for _, r := range members {
		span, detects := v.streams.Plan(r.Index, v.asked[r.Index], t)
		v.res.MaxSingleSpan = max(v.res.MaxSingleSpan, span)
		if detects {
			maxSpan = max(maxSpan, span)
			detecting = append(detecting, r)
		} else {
			end = max(end, t+span)
		}
	}
	if len(detecting) > 0 {
		batchEnd := t + BatchLatency(maxSpan, len(detecting))
		end = max(end, batchEnd)
		for _, r := range detecting {
			v.due[r.Index] = dueAt(v.streams.Complete(r.Index, v.asked[r.Index], t, batchEnd))
		}
	}
	v.res.MaxOccupancy = max(v.res.MaxOccupancy, end-t)
	v.res.Busy += end - t
	v.res.Horizon = max(v.res.Horizon, end)
	return end
}
