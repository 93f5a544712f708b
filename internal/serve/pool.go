package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"adavp/internal/core"
	"adavp/internal/obs"
)

// ErrQueueFull is the backpressure signal: the pool's wait queue is at its
// bound, so the request was refused rather than queued. The stream keeps
// tracking against its previous calibration and re-requests on a later frame.
var ErrQueueFull = errors.New("serve: detector wait queue full")

// Pool is the live K-slot batching detector executor: rt detector threads
// acquire a slot before every inference and release it after. Waiting is
// bounded (FairQueue) and served oldest-calibration-first; each slot grant
// drains up to Batch.Size compatible requests (same model setting) from the
// queue and grants them together — the members run their inferences
// concurrently as one fused batch, and the slot frees when the last member
// releases. Pool implements rt.DetectorSlots.
//
// The pool itself never reads a clock: grant order derives entirely from the
// calibration timestamps callers pass in, and slot-wait/execution times are
// measured by the callers around Acquire and release. That also means the
// live pool is work-conserving — it cannot honor BatchConfig.Linger (a fill
// timeout needs a clock) and instead fuses whatever compatible prefix is
// queued at release time; RunVirtual, its virtual-clock twin, models
// lingering exactly.
type Pool struct {
	reg   *obs.Registry
	batch BatchConfig
	stats Stats

	mu      sync.Mutex
	slots   int
	free    int
	queue   *FairQueue
	nextID  int
	waiters map[int]*waiter
	reqs    []Request // grantNextLocked's batch buffer, reused across grants
}

// waiter is one blocked Acquire.
type waiter struct {
	ch        chan struct{} // buffered(1); receives the grant
	cancelled bool          // abandoned by context; skipped when popped
	granted   bool
	g         *group // the grant group; set under p.mu before the grant signal
}

// group tracks one slot grant shared by a drained batch: the slot is handed
// on (or freed) only when the last member releases.
type group struct {
	pending int
}

// NewPool builds a non-batching pool of `slots` detector slots (clamped to
// ≥ 1) whose wait queue admits at most queueBound requests (clamped to ≥ 1):
// every grant serves exactly one request, the pre-batching behavior. A
// non-nil registry receives the aggregate queue-depth gauge and the
// batch-size histogram.
func NewPool(slots, queueBound int, reg *obs.Registry) *Pool {
	return NewBatchPool(slots, queueBound, BatchConfig{Size: 1}, reg)
}

// NewBatchPool builds a batching pool: each slot grant drains up to
// batch.Size compatible requests and grants them as one fused inference.
func NewBatchPool(slots, queueBound int, batch BatchConfig, reg *obs.Registry) *Pool {
	if slots < 1 {
		slots = 1
	}
	return &Pool{
		reg:     reg,
		batch:   batch.WithDefaults(),
		slots:   slots,
		free:    slots,
		queue:   NewFairQueue(queueBound),
		waiters: make(map[int]*waiter),
	}
}

// Slots returns K, the number of concurrent detector slots.
func (p *Pool) Slots() int { return p.slots }

// Batch returns the pool's batching configuration (Size ≥ 1).
func (p *Pool) Batch() BatchConfig { return p.batch }

// Stats reads the per-stage pipeline counters.
func (p *Pool) Stats() StatsSnapshot { return p.stats.Snapshot() }

// QueueDepth returns the current number of waiting requests (including
// requests whose callers have since been cancelled but not yet skipped).
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queue.Len()
}

// publishDepth mirrors the queue depth into the registry; callers hold p.mu.
func (p *Pool) publishDepth() {
	if p.reg != nil {
		p.reg.Gauge(obs.MetricQueueDepth).Set(float64(p.queue.Len()))
	}
}

// observeBatch accounts one slot grant fusing n requests; callers hold p.mu.
func (p *Pool) observeBatch(n int) {
	p.stats.noteBatch(n)
	if p.reg != nil {
		p.reg.Histogram(obs.MetricBatchSize, obs.BatchSizeBuckets).Observe(float64(n))
	}
}

// Acquire implements rt.DetectorSlots: it blocks until a detector slot is
// granted or ctx is cancelled. setting is the batch compatibility key — the
// model setting the caller holds when it requests (its post-grant adaptation
// may still switch; batches are compatible at grant time). When the wait
// queue is full it fails fast with ErrQueueFull instead of queueing — the
// backpressure contract.
func (p *Pool) Acquire(ctx context.Context, stream string, setting core.Setting, lastCalib time.Duration) (func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.stats.admitted.Add(1)
	p.mu.Lock()
	if p.free > 0 {
		// Invariant: a free slot implies an empty queue (release grants
		// waiters before freeing), so taking it immediately cannot overtake
		// an older waiter. An immediate grant is a singleton batch. The
		// release closure re-enters p.mu when invoked, so it is built after
		// the unlock; the group is still private to this caller.
		p.free--
		p.observeBatch(1)
		p.mu.Unlock()
		return p.memberRelease(&group{pending: 1}), nil
	}
	id := p.nextID
	p.nextID++
	if !p.queue.Push(Request{Stream: stream, Index: id, Setting: setting, LastCalib: lastCalib}) {
		p.mu.Unlock()
		p.stats.refused.Add(1)
		return nil, ErrQueueFull
	}
	w := &waiter{ch: make(chan struct{}, 1)}
	p.waiters[id] = w
	p.stats.queued.Add(1)
	p.publishDepth()
	p.mu.Unlock()

	select {
	case <-w.ch:
		// w.g was written under p.mu before the grant signal; the channel
		// receive orders the read after it. Each member builds its own
		// release closure here, outside the lock — the grant path under
		// p.mu only does bookkeeping and channel sends.
		return p.memberRelease(w.g), nil
	case <-ctx.Done():
		p.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: the slot share is ours, hand
			// it straight back so the group is not leaked.
			g := w.g
			p.mu.Unlock()
			p.memberRelease(g)()
			return nil, ctx.Err()
		}
		w.cancelled = true
		p.stats.cancelled.Add(1)
		p.mu.Unlock()
		return nil, ctx.Err()
	}
}

// memberRelease returns the single-use release callback for one member of a
// grant group. The slot moves on only when the whole group has released.
// Callers must NOT hold p.mu: the returned closure re-enters it, and building
// it outside the lock is what keeps the grant/release cycle free of
// lock-under-lock shapes.
func (p *Pool) memberRelease(g *group) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			p.stats.noteRelease()
			g.pending--
			if g.pending == 0 {
				p.grantNextLocked()
				p.publishDepth()
			}
			p.mu.Unlock()
		})
	}
}

// grantNextLocked hands the freed slot to the next batch: it drains up to
// Batch.Size compatible requests in oldest-calibration-first order and grants
// them as one group, or marks the slot free when nothing waits. Entries whose
// callers have been cancelled meanwhile are dropped inside the drain itself
// (AppendBatch's skip predicate), so they neither consume batch capacity nor
// terminate the scan — the batch fills to Size from live waiters whenever
// enough compatible ones are queued. Callers hold p.mu.
func (p *Pool) grantNextLocked() {
	reqs := p.queue.AppendBatch(p.reqs[:0], p.batch.Size, func(r Request) bool {
		w := p.waiters[r.Index]
		if w == nil || w.cancelled {
			delete(p.waiters, r.Index)
			return true
		}
		return false
	})
	p.reqs = reqs
	if len(reqs) == 0 {
		p.free++
		return
	}
	g := &group{pending: len(reqs)}
	grantees := make([]*waiter, 0, len(reqs))
	for _, req := range reqs {
		w := p.waiters[req.Index]
		delete(p.waiters, req.Index)
		w.granted = true
		w.g = g
		grantees = append(grantees, w)
	}
	p.observeBatch(g.pending)
	for _, w := range grantees {
		w.ch <- struct{}{}
	}
}
