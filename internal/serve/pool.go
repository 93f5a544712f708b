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
// releases. Pool implements rt.DetectorSlots, over the ledger RunVirtual keeps.
//
// The pool itself never reads a clock: grant order derives entirely from the
// calibration timestamps callers pass in, and slot-wait/execution times are
// measured by the callers around Acquire and release. That also means the
// live pool is work-conserving — it cannot honor BatchConfig.Linger (a fill
// timeout needs a clock) and instead fuses whatever compatible prefix is
// queued at release time. RunVirtual, its virtual-clock twin, lingers only
// for arrivals it knows are coming, which no timer could know.
type Pool struct {
	mu      sync.Mutex
	led     ledger // queue, stage counters and series; guarded by mu
	free    int
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

// NewBatchPool builds a pool of `slots` detector slots (clamped to ≥ 1) whose
// wait queue admits at most queueBound requests (clamped to ≥ 1): each slot
// grant drains up to batch.Size compatible requests and grants them as one
// fused inference, so Size 1 serves exactly one request per grant, the
// pre-batching behavior. A non-nil registry receives the aggregate
// queue-depth gauge and the batch-size histogram.
func NewBatchPool(slots, queueBound int, batch BatchConfig, reg *obs.Registry) *Pool {
	if slots < 1 {
		slots = 1
	}
	return &Pool{
		led:     newLedger(queueBound, batch.WithDefaults().Size, reg),
		free:    slots,
		waiters: make(map[int]*waiter),
	}
}

// Stats reads the per-stage pipeline counters.
func (p *Pool) Stats() StatsSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.led.stats
}

// QueueDepth returns the current number of waiting requests (including
// requests whose callers have since been cancelled but not yet skipped).
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.led.q.Len()
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
	p.mu.Lock()
	p.led.stats.Admitted++
	if p.free > 0 {
		// Invariant: a free slot implies an empty queue (release grants
		// waiters before freeing), so taking it immediately cannot overtake
		// an older waiter. An immediate grant is a singleton batch. The
		// release closure re-enters p.mu when invoked, so it is built after
		// the unlock; the group is still private to this caller.
		p.free--
		p.led.grant(1)
		p.mu.Unlock()
		return p.memberRelease(&group{pending: 1}), nil
	}
	id := p.nextID
	p.nextID++
	if !p.led.push(Request{Stream: stream, Index: id, Setting: setting, LastCalib: lastCalib}) {
		p.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &waiter{ch: make(chan struct{}, 1)}
	p.waiters[id] = w
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
		p.led.stats.Cancelled++
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
			p.led.release()
			g.pending--
			if g.pending == 0 {
				p.grantNextLocked()
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
	reqs := p.led.drain(p.reqs[:0], func(r Request) bool {
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
	p.led.grant(g.pending)
	for _, w := range grantees {
		w.ch <- struct{}{}
	}
}
