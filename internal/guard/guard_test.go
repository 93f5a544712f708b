package guard

import (
	"context"
	"runtime"
	"testing"
	"time"

	"adavp/internal/core"
)

// TestCallGoroutineReleased asserts that supervised call goroutines are not
// leaked: a completed call's goroutine exits immediately, and an abandoned
// (timed-out) call's goroutine exits once the underlying work returns — the
// buffered result channel means it never blocks forever on send.
func TestCallGoroutineReleased(t *testing.T) {
	s := New(Config{})
	base := runtime.NumGoroutine()

	for i := 0; i < 8; i++ {
		s.Call(time.Second, func(context.Context) []core.Detection { return nil })
	}

	release := make(chan struct{})
	if _, o := s.Call(5*time.Millisecond, func(ctx context.Context) []core.Detection {
		<-release
		return nil
	}); o != Timeout {
		t.Fatalf("outcome = %v, want Timeout", o)
	}
	close(release) // let the zombie drain

	deadline := time.Now().Add(5 * time.Second)
	const tolerance = 2
	for runtime.NumGoroutine() > base+tolerance {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine count %d never returned to baseline %d (+%d)\n%s",
				runtime.NumGoroutine(), base, tolerance, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCallOutcomes(t *testing.T) {
	s := New(Config{})

	want := []core.Detection{{Class: core.ClassCar, Score: 1}}
	dets, o := s.Call(time.Second, func(context.Context) []core.Detection { return want })
	if o != OK || len(dets) != 1 {
		t.Fatalf("ok call: outcome %v, %d detections", o, len(dets))
	}

	dets, o = s.Call(time.Second, func(context.Context) []core.Detection { panic("boom") })
	if o != Panicked || dets != nil {
		t.Fatalf("panicking call: outcome %v, dets %v", o, dets)
	}

	release := make(chan struct{})
	defer close(release)
	abandonedCtx := make(chan context.Context, 1)
	dets, o = s.Call(10*time.Millisecond, func(ctx context.Context) []core.Detection {
		abandonedCtx <- ctx
		<-release
		return want
	})
	if o != Timeout || dets != nil {
		t.Fatalf("hung call: outcome %v, dets %v", o, dets)
	}
	// The abandoned call's context must already be cancelled when Call
	// returns Timeout — that ordering is what lets detectors drop pooled
	// state before any retry can draw from the pool.
	if err := (<-abandonedCtx).Err(); err == nil {
		t.Fatal("abandoned call's context not cancelled after Timeout")
	}
}

func TestStateMachine(t *testing.T) {
	s := New(Config{})
	if s.Health() != Healthy {
		t.Fatalf("initial health %v", s.Health())
	}

	dec := s.ObserveFault(ComponentDetector, Timeout, 0, 0, 0)
	if s.Health() != Degraded {
		t.Fatalf("after fault: %v", s.Health())
	}
	if dec.Backoff <= 0 {
		t.Fatalf("fault decision has no backoff: %+v", dec)
	}

	// First success moves Degraded → Recovering, not Healthy.
	if rec := s.ObserveSuccess(false, 1, 1, 0); rec {
		t.Fatal("recovered after one success with RecoverAfter=3")
	}
	if s.Health() != Recovering {
		t.Fatalf("after first success: %v", s.Health())
	}
	if rec := s.ObserveSuccess(false, 2, 2, 0); rec {
		t.Fatal("recovered after two successes")
	}
	if rec := s.ObserveSuccess(false, 3, 3, 0); !rec {
		t.Fatal("did not recover after three successes")
	}
	if s.Health() != Healthy {
		t.Fatalf("after recovery: %v", s.Health())
	}

	st := s.Stats()
	if st.Timeouts != 1 || st.Recoveries != 1 || st.Abandoned != 1 {
		t.Fatalf("stats = %+v", st)
	}
	evs := s.Events()
	if len(evs) != 2 || evs[0].Action != "timeout" || evs[1].Action != "recovered" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestFaultDuringRecoveryResetsStreak(t *testing.T) {
	s := New(Config{})
	s.ObserveFault(ComponentDetector, Panicked, 0, 0, 0)
	s.ObserveSuccess(false, 1, 1, 0) // Recovering, streak 1
	s.ObserveSuccess(false, 2, 2, 0) // Recovering, streak 2
	s.ObserveFault(ComponentDetector, Panicked, 3, 3, 0)
	if s.Health() != Degraded {
		t.Fatalf("fault during recovery: %v", s.Health())
	}
	s.ObserveSuccess(false, 4, 4, 0)
	s.ObserveSuccess(false, 5, 5, 0)
	if rec := s.ObserveSuccess(false, 6, 6, 0); !rec {
		t.Fatal("streak after second fault did not recover at RecoverAfter")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	s := New(Config{BackoffBase: 10 * time.Millisecond, BackoffMax: 35 * time.Millisecond})
	var prev time.Duration
	for i := 0; i < 6; i++ {
		dec := s.ObserveFault(ComponentDetector, Timeout, i, i, 0)
		if dec.Backoff < prev {
			t.Fatalf("fault %d: backoff shrank %v -> %v", i, prev, dec.Backoff)
		}
		if dec.Backoff > 35*time.Millisecond {
			t.Fatalf("fault %d: backoff %v exceeds cap", i, dec.Backoff)
		}
		prev = dec.Backoff
	}
	if prev != 35*time.Millisecond {
		t.Fatalf("backoff never reached cap: %v", prev)
	}
}

func TestDowngradeEveryN(t *testing.T) {
	s := New(Config{})
	var downs []int
	for i := 1; i <= 6; i++ {
		if s.ObserveFault(ComponentDetector, Timeout, i, i, 0).Downgrade {
			downs = append(downs, i)
		}
	}
	if len(downs) != 3 || downs[0] != 2 || downs[1] != 4 || downs[2] != 6 {
		t.Fatalf("downgrades at faults %v, want [2 4 6]", downs)
	}
}

func TestEmptyBurst(t *testing.T) {
	s := New(Config{})
	for i := 0; i < EmptyBurst-1; i++ {
		s.ObserveSuccess(true, i, i, 0)
	}
	if s.Health() != Healthy {
		t.Fatalf("short empty run degraded health: %v", s.Health())
	}
	s.ObserveSuccess(true, EmptyBurst-1, EmptyBurst-1, 0) // the burst's last empty
	if s.Health() != Degraded {
		t.Fatalf("empty burst did not degrade: %v", s.Health())
	}
	if st := s.Stats(); st.EmptyBursts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A longer run must not double-count the same burst.
	s.ObserveSuccess(true, EmptyBurst, EmptyBurst, 0)
	if st := s.Stats(); st.EmptyBursts != 1 {
		t.Fatalf("burst double-counted: %+v", st)
	}
	// A non-empty success resets the streak and starts recovery.
	s.ObserveSuccess(false, EmptyBurst+1, EmptyBurst+1, 0)
	if s.Health() != Recovering {
		t.Fatalf("after non-empty success: %v", s.Health())
	}
}

func TestEmptyCyclesDoNotAdvanceRecovery(t *testing.T) {
	s := New(Config{})
	s.ObserveFault(ComponentDetector, Timeout, 0, 0, 0)
	for i := 1; i < EmptyBurst; i++ { // short of a burst, which degrades on its own
		if rec := s.ObserveSuccess(true, i, i, 0); rec {
			t.Fatal("empty cycle reported recovery")
		}
	}
	if s.Health() != Degraded {
		t.Fatalf("empty cycles advanced health to %v", s.Health())
	}
}

func TestNotes(t *testing.T) {
	s := New(Config{})
	s.NoteRetry(1, 2, 0)
	s.NoteDowngrade(1, 2, 0, "512x512", "416x416")
	st := s.Stats()
	if st.Retries != 1 || st.Downgrades != 1 {
		t.Fatalf("stats = %+v", st)
	}
	evs := s.Events()
	if len(evs) != 2 || evs[0].Action != "retry" || evs[1].Action != "downgrade" {
		t.Fatalf("events = %+v", evs)
	}
	if evs[1].Kind != "512x512->416x416" {
		t.Fatalf("downgrade kind = %q", evs[1].Kind)
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.MinDeadline != 100*time.Millisecond || c.BackoffBase != 5*time.Millisecond ||
		c.BackoffMax != 250*time.Millisecond {
		t.Fatalf("defaults = %+v", c)
	}
}
