package guard

import (
	"sync"
	"testing"
	"time"

	"adavp/internal/obs"
)

// TestEscalationBudgetSharedAcrossSupervisors: two supervisors sharing a
// budget of 2 get exactly two downgrades between them, then none.
func TestEscalationBudgetSharedAcrossSupervisors(t *testing.T) {
	b := NewEscalationBudget(2, 0)
	s1 := New(Config{Budget: b, Stream: "s1"})
	s2 := New(Config{Budget: b, Stream: "s2"})
	granted := 0
	for _, s := range []*Supervisor{s1, s2, s1, s2} {
		if s.AllowDowngrade(0) {
			granted++
		}
	}
	if granted != 2 {
		t.Errorf("%d downgrades granted across supervisors, want 2 (shared budget)", granted)
	}
	if b.Remaining() != 0 {
		t.Errorf("Remaining() = %d, want 0", b.Remaining())
	}
}

// TestEscalationBudgetNilUnlimited: a supervisor without a budget always
// grants (the single-stream default).
func TestEscalationBudgetNilUnlimited(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 10; i++ {
		if !s.AllowDowngrade(0) {
			t.Fatalf("downgrade %d denied without a budget", i)
		}
	}
}

// TestEscalationBudgetConcurrent: concurrent TakeAt calls never over-grant
// (run under -race by make race).
func TestEscalationBudgetConcurrent(t *testing.T) {
	const cap, workers, tries = 64, 8, 100
	b := NewEscalationBudget(cap, 0)
	var total int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < tries; i++ {
				if b.TakeAt(0) {
					n++
				}
			}
			mu.Lock()
			total += int64(n)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != cap {
		t.Errorf("%d downgrades granted concurrently, want exactly %d", total, cap)
	}
	if b.Remaining() != 0 {
		t.Errorf("Remaining() = %d, want 0", b.Remaining())
	}
}

// TestEscalationBudgetRefill: a refillable budget restores one grant per
// interval of reported pipeline time, saturates at capacity, and treats
// non-monotone time as a no-op.
func TestEscalationBudgetRefill(t *testing.T) {
	b := NewEscalationBudget(2, time.Second)
	if !b.TakeAt(0) || !b.TakeAt(0) {
		t.Fatal("initial capacity not grantable")
	}
	if b.TakeAt(0) {
		t.Fatal("over-granted past capacity")
	}
	b.Advance(500 * time.Millisecond) // under one interval: no credit
	if got := b.Remaining(); got != 0 {
		t.Errorf("Remaining after partial interval = %d, want 0", got)
	}
	b.Advance(2500 * time.Millisecond) // 2.5s elapsed: two grants back
	if got := b.Remaining(); got != 2 {
		t.Errorf("Remaining after 2.5 intervals = %d, want 2", got)
	}
	b.Advance(100 * time.Hour) // saturation: never exceeds capacity
	if got := b.Remaining(); got != 2 {
		t.Errorf("Remaining after huge advance = %d, want 2 (saturated)", got)
	}
	b.Advance(time.Second) // stale time: monotone guard makes it a no-op
	if got := b.Remaining(); got != 2 {
		t.Errorf("Remaining after stale advance = %d, want 2", got)
	}
	if !b.TakeAt(100*time.Hour + time.Second) {
		t.Error("TakeAt denied with capacity available")
	}
	if got := b.Remaining(); got != 1 {
		t.Errorf("Remaining after TakeAt = %d, want 1", got)
	}
}

// TestEscalationBudgetRefillPartialCredit: fractional intervals carry over —
// advancing twice by 0.6 intervals credits one grant, not zero.
func TestEscalationBudgetRefillPartialCredit(t *testing.T) {
	b := NewEscalationBudget(3, time.Second)
	for i := 0; i < 3; i++ {
		b.TakeAt(0)
	}
	b.Advance(600 * time.Millisecond)
	b.Advance(1200 * time.Millisecond)
	if got := b.Remaining(); got != 1 {
		t.Errorf("Remaining after 1.2s in two steps = %d, want 1", got)
	}
}

// TestEscalationBudgetRefillConcurrent: concurrent TakeAt/Advance callers
// never over-grant beyond capacity plus credited refill (run under -race by
// make race).
func TestEscalationBudgetRefillConcurrent(t *testing.T) {
	const capacity, workers, tries = 8, 8, 200
	// One grant refills per second of pipeline time; workers report times up
	// to tries seconds, so at most capacity + tries - 1 grants can exist.
	b := NewEscalationBudget(capacity, time.Second)
	var total int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 1; i <= tries; i++ {
				if b.TakeAt(time.Duration(i) * time.Second) {
					n++
				}
			}
			mu.Lock()
			total += int64(n)
			mu.Unlock()
		}()
	}
	wg.Wait()
	max := int64(capacity + tries - 1)
	if total > max {
		t.Errorf("%d grants across workers, want <= %d (capacity + refill)", total, max)
	}
	if total < capacity {
		t.Errorf("%d grants, want >= %d (initial capacity)", total, capacity)
	}
	if rem := b.Remaining(); rem < 0 || rem > capacity {
		t.Errorf("Remaining = %d, outside [0,%d]", rem, capacity)
	}
}

// TestStreamLabeledSeries: a supervisor with a stream id publishes its
// health gauge and counters under stream=<id>, keeping N streams sharing a
// registry distinguishable; journal events carry the id in the component.
func TestStreamLabeledSeries(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Obs: reg, Stream: "s3"})
	s.ObserveFault(ComponentDetector, Timeout, 0, 1, 0)
	if got := reg.Gauge(obs.MetricGuardHealth, obs.L("stream", "s3")).Value(); got != float64(Degraded) {
		t.Errorf("labeled health gauge = %v, want %v", got, float64(Degraded))
	}
	c := reg.Counter(obs.MetricGuardFaults,
		obs.L("component", ComponentDetector), obs.L("kind", "timeout"), obs.L("stream", "s3"))
	if c.Value() != 1 {
		t.Errorf("labeled fault counter = %d, want 1", c.Value())
	}
	snap := reg.Snapshot()
	if len(snap.Events) != 1 || snap.Events[0].Component != "detector@s3" {
		t.Errorf("journal events = %+v, want one event with component detector@s3", snap.Events)
	}
}
