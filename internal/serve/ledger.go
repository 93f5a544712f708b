package serve

import "adavp/internal/obs"

// StatsSnapshot is the per-stage flow accounting of the staged serve
// pipeline (admit → queue → batch → detect → publish). A request's life maps
// onto the stages as
//
//	admit    Acquire called (Admitted), or refused by backpressure (Refused)
//	queue    entered the bounded wait queue (Queued) or abandoned while
//	         waiting (Cancelled)
//	batch    fused into a slot grant — Batches counts grants, Granted counts
//	         members, MaxBatch the largest fusion
//	detect   executing between grant and release (Executing, a level)
//	publish  released its slot (Released)
//
// At quiescence Admitted == Refused + Granted + Cancelled and Released ==
// Granted. The counters are clock-free like everything else in serve: stage
// *durations* are published by the clock-owning callers as the
// MetricSlotWait / MetricSlotExec histograms.
type StatsSnapshot struct {
	// Admitted counts Acquire calls that passed the admit stage.
	Admitted int64 `json:"admitted"`
	// Refused counts Acquire calls bounced by queue backpressure.
	Refused int64 `json:"refused"`
	// Queued counts requests that entered the wait queue.
	Queued int64 `json:"queued"`
	// Cancelled counts waiters abandoned by their context while queued.
	Cancelled int64 `json:"cancelled"`
	// Batches counts slot grants (each drains one batch).
	Batches int64 `json:"batches"`
	// Granted counts requests granted across all batches.
	Granted int64 `json:"granted"`
	// MaxBatch is the largest number of requests one grant fused.
	MaxBatch int64 `json:"max_batch"`
	// Executing is the number of requests currently between grant and
	// release — the detect stage's level, at most Slots × batch size.
	Executing int64 `json:"executing"`
	// Released counts requests that completed the publish stage.
	Released int64 `json:"released"`
}

// MeanBatchFill is the average number of requests fused per slot grant
// (0 before the first grant).
func (s StatsSnapshot) MeanBatchFill() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Granted) / float64(s.Batches)
}

// ledger is the one place both schedulers queue a request, drain a batch and
// count a grant. Pool guards it with its mutex; RunVirtual owns it alone. The
// series handles are looked up once, so Pool never locks the registry under it.
type ledger struct {
	q     *FairQueue
	size  int // BatchConfig.Size, already clamped
	stats StatsSnapshot
	peak  int // deepest the queue got
	depth *obs.Gauge
	sizes *obs.Histogram
}

// newLedger returns an empty ledger whose drains fill to size; reg may be nil.
func newLedger(bound, size int, reg *obs.Registry) ledger {
	return ledger{
		q:     NewFairQueue(bound),
		size:  size,
		depth: reg.Gauge(obs.MetricQueueDepth),
		sizes: reg.Histogram(obs.MetricBatchSize, obs.BatchSizeBuckets),
	}
}

// push queues r, or refuses it when the queue is full, and counts which.
func (l *ledger) push(r Request) bool {
	if !l.q.Push(r) {
		l.stats.Refused++
		return false
	}
	l.stats.Queued++
	l.noteDepth()
	return true
}

// drain is FairQueue.AppendBatch up to the batch size, plus the depth gauge.
func (l *ledger) drain(batch []Request, skip func(Request) bool) []Request {
	batch = l.q.AppendBatch(batch, l.size, skip)
	l.noteDepth()
	return batch
}

// noteDepth tracks the queue's peak depth and mirrors its level to the gauge.
func (l *ledger) noteDepth() {
	l.peak = max(l.peak, l.q.Len())
	l.depth.Set(float64(l.q.Len()))
}

// grant counts one slot grant fusing n requests.
func (l *ledger) grant(n int) {
	l.stats.Batches++
	l.stats.Granted += int64(n)
	l.stats.Executing += int64(n)
	l.stats.MaxBatch = max(l.stats.MaxBatch, int64(n))
	l.sizes.Observe(float64(n))
}

// release counts one request leaving the detect stage.
func (l *ledger) release() {
	l.stats.Executing--
	l.stats.Released++
}
