package serve

import (
	"fmt"
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
	// Batch is the batching executor's configuration. Linger holds a short
	// batch only for arrivals already due inside the window (see
	// RunVirtual).
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

// virtual is RunVirtual's state. Every stream's request state is indexed by
// stream: due keys the streams that have a request to admit by when they
// ask, so an admission peeks at its minimum and costs O(log N) instead of a
// scan over all N streams.
type virtual struct {
	streams VirtualStreams
	led     ledger          // the wait queue, batch counters and series Pool keeps too
	due     dueHeap         // streams with a request to admit, by due time
	asked   []time.Duration // when stream i's admitted request was issued
	res     VirtualResult
}

// RunVirtual is the virtual-clock twin of Pool: the same FairQueue policy
// and batch formation, driven by a clock the loop owns instead of by
// goroutines blocking on a mutex. streams[i] first asks at start[i]. At every
// step the earliest-free slot (lowest index among ties) admits every request
// issued by its free time, in (request time, index) order; if nothing waits
// it idles forward to the next arrival. It then drains one batch — the
// oldest-calibration-first head plus its same-setting prefix, up to
// Batch.Size. When Batch.Linger is set and the batch is short, the slot
// lingers only for arrivals it knows are coming: while the next request is
// issued within Linger of the slot's clock, the grant slips to that request
// time and the batch tops up with compatible requests. It never waits out
// the window, so a lone request is granted at once, and an incompatible
// arrival inside the window still moves the grant to its request time while
// nothing joins the batch. Incompatible arrivals stay queued and an
// incompatible head stops the drain, so lingering never reorders grants. A
// live pool driven by a timer cannot see arrivals coming, which is why Pool
// does not linger at all. A batch is granted at one instant, no earlier than
// any member asked (execute). The run ends when nothing is queued and every stream has
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
		led:     newLedger(cfg.QueueBound, batch.Size, cfg.Obs),
		due:     newDueHeap(start),
		asked:   make([]time.Duration, len(start)),
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
		if v.led.q.Len() == 0 {
			if next == never {
				break
			}
			t = next // nothing is asking yet: the slot idles to the next arrival
			next = v.admit(t)
		}
		members = v.led.drain(members[:0], nil)
		for deadline := t + batch.Linger; len(members) < batch.Size && next <= deadline; {
			t = next
			next = v.admit(t)
			members = v.led.drain(members, nil)
		}
		free[si] = v.execute(members, t)
	}
	st := v.led.stats
	v.res.Batches, v.res.Granted, v.res.MaxBatch = int(st.Batches), int(st.Granted), int(st.MaxBatch)
	v.res.PeakQueueDepth = v.led.peak
	return v.res
}

// admit moves every request issued by t into the wait queue, in (request
// time, index) order so simultaneous arrivals enqueue deterministically, and
// returns when the next one after t is issued (never if no stream has one). A
// full queue refuses: the stream retries when its Refused callback says, or
// retires. A retry no later than the refused request would be refused again
// at once, for ever, so it panics.
func (v *virtual) admit(t time.Duration) (next time.Duration) {
	for {
		var i int
		i, next = v.due.min()
		if next > t {
			break
		}
		r := v.streams.Key(i)
		r.Index = i
		if v.led.push(r) {
			v.asked[i] = next
			v.due.set(i, never)
			continue
		}
		retry, ok := v.streams.Refused(i, next)
		if ok && retry <= next {
			panic(fmt.Sprintf("serve: RunVirtual: stream %d refused at %v asked to retry at %v, not later", i, next, retry))
		}
		v.due.set(i, dueAt(retry, ok))
	}
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
	v.led.grant(len(members))

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
			v.due.set(r.Index, dueAt(v.streams.Complete(r.Index, v.asked[r.Index], t, batchEnd)))
		}
	}
	v.res.MaxOccupancy = max(v.res.MaxOccupancy, end-t)
	v.res.Busy += end - t
	v.res.Horizon = max(v.res.Horizon, end)
	return end
}

// dueHeap is an indexed binary min-heap of the streams that have a request
// to admit, ordered by (due time, stream index) — the order a scan for the
// strictly earliest due time, lowest index among ties, would pick them in. A
// stream due never is simply absent.
type dueHeap struct {
	at   []time.Duration // stream i's due time, while it is in the heap
	pos  []int           // stream i's position in heap, or -1 when absent
	heap []int           // stream indices
}

// newDueHeap returns the heap of streams first due at start[i].
func newDueHeap(start []time.Duration) dueHeap {
	h := dueHeap{at: make([]time.Duration, len(start)), pos: make([]int, len(start)), heap: make([]int, 0, len(start))}
	for i := range h.pos {
		h.pos[i] = -1
	}
	for i, at := range start {
		h.set(i, at)
	}
	return h
}

// min returns the earliest-due stream and its due time, or (-1, never) when
// no stream has a request to admit.
func (h *dueHeap) min() (int, time.Duration) {
	if len(h.heap) == 0 {
		return -1, never
	}
	i := h.heap[0]
	return i, h.at[i]
}

// set makes stream i due at at: it inserts the stream, moves it, or removes
// it when at is never.
func (h *dueHeap) set(i int, at time.Duration) {
	p := h.pos[i]
	if at == never {
		if p < 0 {
			return
		}
		last := len(h.heap) - 1
		h.swap(p, last)
		h.heap = h.heap[:last]
		h.pos[i] = -1
		if p < last {
			h.fix(p)
		}
		return
	}
	h.at[i] = at
	if p < 0 {
		p = len(h.heap)
		h.heap = append(h.heap, i)
		h.pos[i] = p
	}
	h.fix(p)
}

// fix restores the heap order around position p after its key changed. If
// up moves the key, p then holds its old parent, which down leaves in place.
func (h *dueHeap) fix(p int) {
	h.up(p)
	h.down(p)
}

// less orders the heap: earliest due first, then lowest stream index.
func (h *dueHeap) less(p, q int) bool {
	a, b := h.heap[p], h.heap[q]
	if h.at[a] != h.at[b] {
		return h.at[a] < h.at[b]
	}
	return a < b
}

func (h *dueHeap) swap(p, q int) {
	h.heap[p], h.heap[q] = h.heap[q], h.heap[p]
	h.pos[h.heap[p]], h.pos[h.heap[q]] = p, q
}

func (h *dueHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *dueHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
