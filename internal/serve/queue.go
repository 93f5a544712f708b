// Package serve is the multi-stream serving layer: N independent AdaVP
// streams — each with its own tracker, adaptation state, guard supervisor
// and scenario — share a pool of K detector slots (K < N means detection
// requests queue). The paper's premise, one heavyweight detector paired with
// cheap trackers (§IV-B), generalizes directly: while a stream waits for the
// shared detector it keeps tracking and extrapolating against its previous
// calibration, exactly as MPDT does between calibrations — staleness grows
// instead of memory.
//
// The package provides four layers — two schedulers over one policy:
//
//   - FairQueue: the pure scheduling policy — a bounded
//     oldest-calibration-first priority queue whose AppendBatch forms every
//     batch. Deterministic and clock-free, it sits in the one ledger
//     (ledger.go) both schedulers below queue, drain and count batches through.
//   - Pool: the live K-slot batching executor around FairQueue that rt's
//     detector loop blocks on. Bounded waiting with backpressure: when the
//     wait queue is full Acquire fails fast and the stream skips the
//     detection instead of queueing unboundedly. Each slot grant drains up
//     to B compatible requests (same model setting, AppendBatch) and grants
//     them as one fused batch; the slot frees when the last member releases.
//   - RunVirtual: Pool's virtual-clock twin — the one slot-scheduler loop
//     (admit, idle-advance, batch drain, linger, BatchLatency fusing) that
//     owns a clock instead of blocking goroutines. sim.RunMulti (engines)
//     and loadtest.Run (synthetic load) are its two clients, reached through
//     the VirtualStreams callbacks. The two share the policy and the ledger,
//     not the slot clocks: a mutex pool has no clock to linger on and a
//     clock loop has no goroutines to block.
//   - Run: the live multi-stream runner — one supervised rt pipeline per
//     stream against a shared Pool, a shared observability registry
//     (per-stream series labeled stream=<id>) and a shared guard escalation
//     budget.
//
// A request's life is an explicit staged pipeline —
// admit → queue → batch → detect → publish — with per-stage flow counters in
// StatsSnapshot and the queueing vs. execution split published as the
// MetricSlotWait / MetricSlotExec histograms by the clock-owning callers.
//
// Determinism contract: this package never reads a clock (it is on the
// detrand deterministic-package list). All queue ordering derives from
// caller-supplied calibration timestamps — wall-relative in rt, virtual in
// RunVirtual's clients — and Pool's wait durations are measured by the
// callers that own the wall clock.
package serve

import (
	"time"

	"adavp/internal/core"
)

// Request is one stream's claim on a detector slot.
type Request struct {
	// Stream identifies the requesting stream (labels, diagnostics).
	Stream string
	// Index is an opaque caller-side identifier: the waiter slot in the live
	// pool, the stream index in RunVirtual.
	Index int
	// Setting is the model setting the requester intends to run — the batch
	// compatibility key. A slot grant fuses only requests that share one
	// setting into a batched inference (AppendBatch); the requester reports the
	// setting it holds *before* its post-grant adaptation decision, so two
	// members of one batch are compatible at grant time even if one of them
	// switches afterwards.
	Setting core.Setting
	// LastCalib is the pipeline time at which the stream's most recent
	// calibration completed (zero before the first). The fairness key:
	// oldest calibration is served first, so no stream starves — a stream
	// that just calibrated yields to every stream running on staler results.
	LastCalib time.Duration
	// seq breaks ties FIFO among equal calibration ages.
	seq uint64
}

// FairQueue is a bounded oldest-calibration-first wait queue. It is a pure
// data structure — no clock, no goroutines, not safe for concurrent use on
// its own (Pool wraps it in a mutex; RunVirtual is single-threaded). Ordering
// is deterministic: by LastCalib ascending, then by push order.
type FairQueue struct {
	bound int
	seq   uint64
	heap  []Request // min-heap on (LastCalib, seq)
}

// NewFairQueue returns a queue admitting at most bound waiting requests;
// bound < 1 is clamped to 1 (a queue that admits nothing could never grant).
func NewFairQueue(bound int) *FairQueue {
	if bound < 1 {
		bound = 1
	}
	return &FairQueue{bound: bound}
}

// Len returns the number of waiting requests.
func (q *FairQueue) Len() int { return len(q.heap) }

// Push enqueues a request, reporting false when the queue is full — the
// backpressure signal: the caller keeps tracking against its previous
// calibration and retries later instead of waiting.
func (q *FairQueue) Push(r Request) bool {
	if len(q.heap) >= q.bound {
		return false
	}
	q.seq++
	r.seq = q.seq
	q.heap = append(q.heap, r)
	q.up(len(q.heap) - 1)
	return true
}

// Pop removes and returns the request with the oldest calibration (FIFO
// among ties); ok is false on an empty queue.
func (q *FairQueue) Pop() (Request, bool) {
	if len(q.heap) == 0 {
		return Request{}, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return top, true
}

// AppendBatch drains requests that can execute as one batched inference
// with the members already in batch, appends them to it and returns it, so a
// caller can reuse one buffer across grants and top a short batch up later.
// An empty batch takes the head request (oldest calibration, FIFO among
// ties); after that the drain continues in pop order for as long as the head
// carries the batch's Setting and the batch holds fewer than max members. The
// first head with a different setting stops the drain — a batch never reaches
// past it, so the strict oldest-calibration-first grant order of Pop is
// preserved exactly and setting skew fragments batches instead of reordering
// them. max < 1 is clamped to 1.
//
// skip, when non-nil, marks abandoned entries: a request for which it returns
// true is removed from the queue and discarded — it neither counts toward
// max nor supplies the batch's compatibility setting, and the drain scans
// straight past it (even when its setting differs from the batch's). Without
// this the live pool under-filled batches: a cancelled waiter inside the
// same-setting prefix consumed batch capacity, and one with a different
// setting terminated the drain early. Skipping dead entries cannot reorder
// live grants — a skipped request is never granted at all, so the batch is
// still a strict prefix of the pop order restricted to live requests.
func (q *FairQueue) AppendBatch(batch []Request, max int, skip func(Request) bool) []Request {
	if max < 1 {
		max = 1
	}
	for len(batch) < max && len(q.heap) > 0 {
		head := q.heap[0]
		if skip != nil && skip(head) {
			q.Pop()
			continue
		}
		if len(batch) > 0 && head.Setting != batch[0].Setting {
			break
		}
		q.Pop()
		batch = append(batch, head)
	}
	return batch
}

// PopBatch removes and returns up to max requests that can execute as one
// batched inference (AppendBatch into a fresh batch, nothing skipped), making
// PopBatch(1) ≡ Pop. Returns nil on an empty queue.
func (q *FairQueue) PopBatch(max int) []Request { return q.AppendBatch(nil, max, nil) }

// less orders the heap: oldest calibration first, then FIFO.
func (q *FairQueue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.LastCalib != b.LastCalib {
		return a.LastCalib < b.LastCalib
	}
	return a.seq < b.seq
}

func (q *FairQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *FairQueue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}
