package serve

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"adavp/internal/core"
)

// The property tests drive FairQueue through arbitrary operation
// interleavings — push (with colliding calibration timestamps and mixed
// settings), pop, batch drains of arbitrary capacity — and check it against
// a reference model: a stable sort on (LastCalib, arrival order). Any
// divergence in returned requests, refusal decisions or drain grouping is a
// scheduler-ordering bug that both the live pool and the virtual-clock
// scheduler would inherit.

// qop is one queue operation.
type qop struct {
	kind    int           // 0: push, 1: pop, 2: popbatch, 3: cancel
	calib   time.Duration // push: LastCalib (coarse, to force ties)
	setting core.Setting  // push: batch compatibility key
	max     int           // popbatch: capacity; cancel: victim selector
}

// qscript is a generated operation sequence over a small-bounded queue.
type qscript struct {
	bound int
	ops   []qop
}

// Generate implements quick.Generator.
func (qscript) Generate(rng *rand.Rand, size int) reflect.Value {
	settings := []core.Setting{core.Setting320, core.Setting512, core.Setting608}
	s := qscript{bound: 1 + rng.Intn(6), ops: make([]qop, 2+rng.Intn(60))}
	for i := range s.ops {
		op := qop{kind: rng.Intn(4)}
		switch op.kind {
		case 0:
			// Coarse timestamps so FIFO tie-breaking is actually exercised.
			op.calib = time.Duration(rng.Intn(4)) * 100 * time.Millisecond
			op.setting = settings[rng.Intn(len(settings))]
		case 2:
			op.max = rng.Intn(5) // includes the <1 clamp
		case 3:
			op.max = rng.Intn(16) // selects which queued entry to cancel
		}
		s.ops[i] = op
	}
	return reflect.ValueOf(s)
}

// modelReq is the reference model's request: Push order is its tiebreaker.
type modelReq struct {
	arrival int
	calib   time.Duration
	setting core.Setting
}

// modelPop removes and returns the model's (calib, arrival)-minimum.
func modelPop(m *[]modelReq) modelReq {
	best := 0
	for i, r := range *m {
		if r.calib < (*m)[best].calib || (r.calib == (*m)[best].calib && r.arrival < (*m)[best].arrival) {
			best = i
		}
	}
	r := (*m)[best]
	*m = append((*m)[:best], (*m)[best+1:]...)
	return r
}

// runScript replays a script on a real FairQueue and the reference model in
// lockstep, failing on the first divergence. Returns false (with a reason)
// on mismatch.
func runScript(t *testing.T, s qscript) bool {
	t.Helper()
	q := NewFairQueue(s.bound)
	var model []modelReq
	arrivals := 0
	cancelled := map[int]bool{} // arrival ids abandoned by their callers
	for opi, op := range s.ops {
		switch op.kind {
		case 0:
			r := Request{Stream: "s", Index: arrivals, Setting: op.setting, LastCalib: op.calib}
			got := q.Push(r)
			want := len(model) < s.bound
			if got != want {
				t.Logf("op %d: push admitted=%v, model says %v (len %d, bound %d)", opi, got, want, len(model), s.bound)
				return false
			}
			if got {
				model = append(model, modelReq{arrival: arrivals, calib: op.calib, setting: op.setting})
			}
			arrivals++
		case 1:
			got, ok := q.Pop()
			if ok != (len(model) > 0) {
				t.Logf("op %d: pop ok=%v with model len %d", opi, ok, len(model))
				return false
			}
			if !ok {
				continue
			}
			want := modelPop(&model)
			if got.Index != want.arrival || got.LastCalib != want.calib {
				t.Logf("op %d: pop returned arrival %d calib %v, model wants %d %v",
					opi, got.Index, got.LastCalib, want.arrival, want.calib)
				return false
			}
		case 2:
			got := q.AppendBatch(nil, op.max, func(r Request) bool { return cancelled[r.Index] })
			// Model drain with cancelled entries transparent: walk the pop
			// order, dropping cancelled entries without counting them; the
			// first live request supplies the setting, then subsequent live
			// requests join while they share it, up to max (clamped ≥ 1).
			max := op.max
			if max < 1 {
				max = 1
			}
			var want []modelReq
			for len(want) < max && len(model) > 0 {
				// Peek the model's next pop without removing it yet.
				cp := make([]modelReq, len(model))
				copy(cp, model)
				peek := modelPop(&cp)
				if cancelled[peek.arrival] {
					modelPop(&model) // dropped by the skip predicate
					continue
				}
				if len(want) > 0 && peek.setting != want[0].setting {
					break
				}
				want = append(want, modelPop(&model))
			}
			if len(got) != len(want) {
				t.Logf("op %d: PopBatch(%d) drained %d, model wants %d", opi, op.max, len(got), len(want))
				return false
			}
			for i := range got {
				if cancelled[got[i].Index] {
					t.Logf("op %d: PopBatch returned cancelled arrival %d", opi, got[i].Index)
					return false
				}
				if got[i].Index != want[i].arrival || got[i].Setting != want[i].setting {
					t.Logf("op %d: PopBatch member %d is arrival %d setting %v, model wants %d %v",
						opi, i, got[i].Index, got[i].Setting, want[i].arrival, want[i].setting)
					return false
				}
				if got[i].Setting != got[0].Setting {
					t.Logf("op %d: PopBatch mixed settings %v and %v in one batch", opi, got[0].Setting, got[i].Setting)
					return false
				}
			}
		case 3:
			// Cancel one still-queued entry (a no-op on an empty queue). The
			// entry stays in both the queue and the model — cancellation only
			// marks it for the skip predicate, exactly like the live pool's
			// waiter bookkeeping.
			if len(model) > 0 {
				cancelled[model[op.max%len(model)].arrival] = true
			}
		}
		if q.Len() != len(model) {
			t.Logf("op %d: queue len %d, model len %d", opi, q.Len(), len(model))
			return false
		}
		if q.Len() > q.bound {
			t.Logf("op %d: queue len %d exceeds bound %d", opi, q.Len(), q.bound)
			return false
		}
	}
	// Drain what's left: the remaining pops must come out in exactly the
	// model's (calib, arrival) order — the heap invariant, observed through
	// the public API.
	sort.Slice(model, func(i, j int) bool {
		if model[i].calib != model[j].calib {
			return model[i].calib < model[j].calib
		}
		return model[i].arrival < model[j].arrival
	})
	for i := 0; ; i++ {
		got, ok := q.Pop()
		if !ok {
			if i != len(model) {
				t.Logf("drain: queue emptied after %d, model holds %d", i, len(model))
				return false
			}
			return true
		}
		if i >= len(model) || got.Index != model[i].arrival {
			t.Logf("drain: position %d got arrival %d, want %d", i, got.Index, model[i].arrival)
			return false
		}
	}
}

// TestFairQueueQuickAgainstModel: arbitrary push/pop/batch-drain
// interleavings match the reference model operation for operation.
func TestFairQueueQuickAgainstModel(t *testing.T) {
	prop := func(s qscript) bool { return runScript(t, s) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestFairQueueQuickBatchDrainPrefix: for any queue content — including
// entries abandoned by cancelled callers — the batch drain returns a strict
// prefix of the live pop order (the sequence repeated Pops would return with
// cancelled entries filtered out). This is the property the generalized
// fairness bound's proof rests on: skipping dead entries must never let a
// younger live request overtake an older one.
func TestFairQueueQuickBatchDrainPrefix(t *testing.T) {
	prop := func(s qscript) bool {
		// Build two identical queues from the script's pushes only; the
		// script's cancel ops mark a subset of arrivals as abandoned.
		a, b := NewFairQueue(s.bound), NewFairQueue(s.bound)
		cancelled := map[int]bool{}
		n := 0
		for _, op := range s.ops {
			switch op.kind {
			case 0:
				r := Request{Stream: "s", Index: n, Setting: op.setting, LastCalib: op.calib}
				pa, pb := a.Push(r), b.Push(r)
				if pa != pb {
					return false
				}
				n++
			case 3:
				if n > 0 {
					cancelled[op.max%n] = true
				}
			}
		}
		skip := func(r Request) bool { return cancelled[r.Index] }
		// livePop pops q's next non-cancelled request, discarding dead ones.
		livePop := func(q *FairQueue) (Request, bool) {
			for {
				r, ok := q.Pop()
				if !ok {
					return Request{}, false
				}
				if !cancelled[r.Index] {
					return r, true
				}
			}
		}
		batch := a.AppendBatch(nil, 3, skip)
		for i, r := range batch {
			want, ok := livePop(b)
			if !ok || want.Index != r.Index {
				t.Logf("batch member %d is arrival %d, live pop order wants %d", i, r.Index, want.Index)
				return false
			}
		}
		// The remaining live requests must agree too: the drain took nothing
		// out of order and left nothing extra. (Dead entries are compared out
		// on both sides — they are never granted, so only the live sequence
		// matters.)
		for {
			ra, oka := livePop(a)
			rb, okb := livePop(b)
			if oka != okb {
				return false
			}
			if !oka {
				return true
			}
			if ra.Index != rb.Index {
				return false
			}
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
