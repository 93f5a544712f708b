package serve

import (
	"context"
	"flag"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"adavp/internal/core"
)

// TestBatchLatencyIdentityAtOne pins the degenerate arithmetic: a batch of
// one costs exactly the single-request latency — bit-for-bit, not within a
// tolerance — because float64(d)*gamma*0 is exactly zero. This identity is
// what makes B=1 runs byte-identical to the pre-batching scheduler.
func TestBatchLatencyIdentityAtOne(t *testing.T) {
	for _, d := range []time.Duration{0, 1, 333 * time.Microsecond, 384*time.Millisecond + 7919, time.Hour} {
		if got := BatchLatency(d, 1); got != d {
			t.Errorf("BatchLatency(%v, 1) = %v, want identity", d, got)
		}
		if got := BatchLatency(d, 0); got != d {
			t.Errorf("BatchLatency(%v, 0) = %v; sizes < 1 must clamp to the identity", d, got)
		}
	}
}

// TestBatchLatencySubLinear: fusing must cost more than one request and
// less than serial execution, monotonically in the batch size.
func TestBatchLatencySubLinear(t *testing.T) {
	single := 384 * time.Millisecond
	prev := single
	for b := 2; b <= 16; b++ {
		got := BatchLatency(single, b)
		if got <= prev {
			t.Errorf("BatchLatency(%v, %d) = %v not above batch %d's %v", single, b, got, b-1, prev)
		}
		if serial := time.Duration(b) * single; got >= serial {
			t.Errorf("BatchLatency(%v, %d) = %v not below serial %v", single, b, got, serial)
		}
		prev = got
	}
}

// TestFairnessBoundBatchedDegenerates pins the generalized bound at B=1 with
// no linger to the unbatched closed form (ceil((N−1)/K) + 2)·occ + fi, as
// exact equality across a grid of topologies.
func TestFairnessBoundBatchedDegenerates(t *testing.T) {
	occs := []time.Duration{10 * time.Millisecond, 384 * time.Millisecond, 2 * time.Second}
	fi := 33 * time.Millisecond
	for streams := 1; streams <= 12; streams++ {
		for slots := 1; slots <= 4; slots++ {
			for _, occ := range occs {
				got := FairnessBoundBatched(streams, slots, 1, occ, fi, 0)
				rounds := int(math.Ceil(float64(streams-1) / float64(slots)))
				want := time.Duration(rounds+2)*occ + fi
				if got != want {
					t.Fatalf("FairnessBoundBatched(%d, %d, 1, %v, %v, 0) = %v, want the closed form's %v",
						streams, slots, occ, fi, got, want)
				}
			}
		}
	}
	// And the generalized bound must strictly grow with batch size and
	// linger — a fused or lingering grant can only hold the slot longer.
	base := FairnessBoundBatched(8, 2, 1, 384*time.Millisecond, fi, 0)
	if b4 := FairnessBoundBatched(8, 2, 4, 384*time.Millisecond, fi, 0); b4 <= base {
		t.Errorf("bound at B=4 (%v) not above B=1 (%v)", b4, base)
	}
	if bl := FairnessBoundBatched(8, 2, 1, 384*time.Millisecond, fi, 5*time.Millisecond); bl <= base {
		t.Errorf("bound with linger (%v) not above zero-linger (%v)", bl, base)
	}
}

// requireDrained checks the ledger's conservation at quiescence: nothing is
// executing, every granted request was released, and every admitted request
// was refused, granted or cancelled — an immediate grant counts as a grant
// of one, and a grant that raced its caller's cancellation as granted.
func requireDrained(t *testing.T, p *Pool) {
	t.Helper()
	st := p.Stats()
	if st.Executing != 0 || st.Released != st.Granted || st.Admitted != st.Refused+st.Granted+st.Cancelled {
		t.Fatalf("flow did not drain: %+v", st)
	}
}

// acquireAsync starts an Acquire in a goroutine and reports its outcome.
type grant struct {
	release func()
	err     error
}

func acquireAsync(p *Pool, setting core.Setting, calib time.Duration) chan grant {
	ch := make(chan grant, 1)
	go func() {
		r, err := p.Acquire(context.Background(), "s", setting, calib)
		ch <- grant{release: r, err: err}
	}()
	return ch
}

// waitDepth polls until the pool's queue holds n waiters (the only
// wall-clock dependence the test has: waiting for goroutines to block).
func waitDepth(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.QueueDepth() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", n, p.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolBatchedGrant: on a one-slot pool with batch capacity 2, two
// compatible waiters are granted together when the slot frees, and the slot
// moves on only after the *last* member releases.
func TestPoolBatchedGrant(t *testing.T) {
	p := NewBatchPool(1, 8, BatchConfig{Size: 2}, nil)
	first, err := p.Acquire(context.Background(), "warm", core.Setting512, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := acquireAsync(p, core.Setting512, 100*time.Millisecond)
	b := acquireAsync(p, core.Setting512, 200*time.Millisecond)
	waitDepth(t, p, 2)

	first() // free the slot: both compatible waiters must be granted as one batch
	ga, gb := <-a, <-b
	if ga.err != nil || gb.err != nil {
		t.Fatalf("batched grant errored: %v / %v", ga.err, gb.err)
	}
	if st := p.Stats(); st.MaxBatch != 2 || st.Batches != 2 || st.Granted != 3 {
		t.Fatalf("stats after fused grant: %+v, want 2 batches, max 2, 3 granted", st)
	}

	// A third request must queue: the slot is held by the group.
	c := acquireAsync(p, core.Setting512, 300*time.Millisecond)
	waitDepth(t, p, 1)
	ga.release() // first member out; the group still holds the slot
	select {
	case g := <-c:
		if g.err == nil {
			g.release()
		}
		t.Fatal("third request granted before the batch's last member released")
	case <-time.After(50 * time.Millisecond):
	}
	gb.release() // last member out: the slot hands over
	gc := <-c
	if gc.err != nil {
		t.Fatal(gc.err)
	}
	gc.release()
	requireDrained(t, p)
}

// TestPoolBatchSettingSkewSplitsGrants: waiters at different settings never
// fuse — the drain stops at the first incompatible head, so the second
// waiter is granted only after the first batch fully releases.
func TestPoolBatchSettingSkewSplitsGrants(t *testing.T) {
	p := NewBatchPool(1, 8, BatchConfig{Size: 4}, nil)
	first, err := p.Acquire(context.Background(), "warm", core.Setting512, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := acquireAsync(p, core.Setting512, 100*time.Millisecond)
	b := acquireAsync(p, core.Setting320, 200*time.Millisecond)
	waitDepth(t, p, 2)
	first()
	ga := <-a
	if ga.err != nil {
		t.Fatal(ga.err)
	}
	select {
	case g := <-b:
		if g.err == nil {
			g.release()
		}
		t.Fatal("incompatible setting fused into the batch")
	case <-time.After(50 * time.Millisecond):
	}
	ga.release()
	gb := <-b
	if gb.err != nil {
		t.Fatal(gb.err)
	}
	gb.release()
	if st := p.Stats(); st.MaxBatch != 1 {
		t.Fatalf("MaxBatch = %d; skewed settings must stay singleton grants", st.MaxBatch)
	}
}

// TestPoolBatchFillsPastCancelledWaiter pins the PopBatch underfill fix: a
// cancelled waiter sitting *inside* the same-setting prefix must not consume
// batch capacity. With batch capacity 3 and three live compatible waiters
// queued around a cancelled one, the freed slot must fuse all three — the
// pre-fix drain counted the dead entry toward the capacity and granted only
// two.
func TestPoolBatchFillsPastCancelledWaiter(t *testing.T) {
	p := NewBatchPool(1, 8, BatchConfig{Size: 3}, nil)
	first, err := p.Acquire(context.Background(), "warm", core.Setting512, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := acquireAsync(p, core.Setting512, 100*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	dead := make(chan grant, 1)
	go func() {
		r, err := p.Acquire(ctx, "dead", core.Setting512, 200*time.Millisecond)
		dead <- grant{release: r, err: err}
	}()
	waitDepth(t, p, 2)
	b := acquireAsync(p, core.Setting512, 300*time.Millisecond)
	c := acquireAsync(p, core.Setting512, 400*time.Millisecond)
	waitDepth(t, p, 4)
	cancel()
	if g := <-dead; g.err == nil {
		t.Fatal("cancelled Acquire returned a grant")
	}
	first()
	ga, gb, gc := <-a, <-b, <-c
	if ga.err != nil || gb.err != nil || gc.err != nil {
		t.Fatalf("grants errored: %v / %v / %v", ga.err, gb.err, gc.err)
	}
	if st := p.Stats(); st.MaxBatch != 3 {
		t.Fatalf("MaxBatch = %d, want 3: the cancelled waiter consumed batch capacity", st.MaxBatch)
	}
	ga.release()
	gb.release()
	gc.release()
	requireDrained(t, p)
}

// TestPoolBatchScansPastIncompatibleCancelled: a cancelled waiter whose
// setting differs from the batch's must not terminate the drain — it is dead,
// so scanning past it cannot reorder any live grant. The pre-fix drain
// stopped at the incompatible head and granted a singleton.
func TestPoolBatchScansPastIncompatibleCancelled(t *testing.T) {
	p := NewBatchPool(1, 8, BatchConfig{Size: 4}, nil)
	first, err := p.Acquire(context.Background(), "warm", core.Setting512, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := acquireAsync(p, core.Setting512, 100*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	dead := make(chan grant, 1)
	go func() {
		r, err := p.Acquire(ctx, "dead", core.Setting320, 200*time.Millisecond)
		dead <- grant{release: r, err: err}
	}()
	waitDepth(t, p, 2)
	b := acquireAsync(p, core.Setting512, 300*time.Millisecond)
	waitDepth(t, p, 3)
	cancel()
	if g := <-dead; g.err == nil {
		t.Fatal("cancelled Acquire returned a grant")
	}
	first()
	ga, gb := <-a, <-b
	if ga.err != nil || gb.err != nil {
		t.Fatalf("grants errored: %v / %v", ga.err, gb.err)
	}
	if st := p.Stats(); st.MaxBatch != 2 {
		t.Fatalf("MaxBatch = %d, want 2: the dead incompatible entry terminated the drain", st.MaxBatch)
	}
	ga.release()
	gb.release()
}

// TestPoolBatchedCancelSkipped: a waiter whose context dies while queued is
// skipped at grant time without consuming batch capacity or wedging the
// group accounting.
func TestPoolBatchedCancelSkipped(t *testing.T) {
	p := NewBatchPool(1, 8, BatchConfig{Size: 2}, nil)
	first, err := p.Acquire(context.Background(), "warm", core.Setting512, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	dead := make(chan grant, 1)
	go func() {
		r, err := p.Acquire(ctx, "dead", core.Setting512, 100*time.Millisecond)
		dead <- grant{release: r, err: err}
	}()
	waitDepth(t, p, 1)
	cancel()
	if g := <-dead; g.err == nil {
		t.Fatal("cancelled Acquire returned a grant")
	}
	live := acquireAsync(p, core.Setting512, 200*time.Millisecond)
	waitDepth(t, p, 2) // cancelled entry still occupies the queue until popped
	first()
	gl := <-live
	if gl.err != nil {
		t.Fatal(gl.err)
	}
	gl.release()
	if st := p.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
	requireDrained(t, p)
}

// FuzzBatchFlags drives BatchFlags, the one -batch-size / -batch-timeout
// validator both CLIs register, with arbitrary strings: a value is accepted
// iff it is an integer in 1..64 (size) or a duration above zero (timeout); an
// accepted value lands in the BatchConfig and leaves the other field at its
// default; a rejection names the valid range and changes nothing. The seeds
// are both CLIs' known bad inputs, each tried on both flags, plus good ones.
func FuzzBatchFlags(f *testing.F) {
	for _, s := range []string{"0", "-1", "65", "four", "2.0", "0s", "-5ms", "10", "never", "", "1", "64", "+8", "5ms", "20ms"} {
		f.Add(s, s)
	}
	parse := func(name, value string) (BatchConfig, error) {
		var b BatchConfig
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		BatchFlags(fs, &b)
		return b, fs.Parse([]string{"-" + name, value})
	}
	f.Fuzz(func(t *testing.T, size, timeout string) {
		b, err := parse("batch-size", size)
		n, perr := strconv.ParseInt(size, 10, 64)
		switch ok := perr == nil && n >= 1 && n <= 64; {
		case ok && (err != nil || b != BatchConfig{Size: int(n)}):
			t.Errorf("-batch-size %q: got %+v, %v; want Size %d", size, b, err, n)
		case !ok && (err == nil || !strings.Contains(err.Error(), "1..64") || b != BatchConfig{Size: 1}):
			t.Errorf("-batch-size %q: got %+v, %v; want a rejection naming 1..64", size, b, err)
		}

		b, err = parse("batch-timeout", timeout)
		d, derr := time.ParseDuration(timeout)
		switch ok := derr == nil && d > 0; {
		case ok && (err != nil || b != BatchConfig{Size: 1, Linger: d}):
			t.Errorf("-batch-timeout %q: got %+v, %v; want Linger %v", timeout, b, err, d)
		case !ok && (err == nil || !strings.Contains(err.Error(), "positive duration") || b != BatchConfig{Size: 1}):
			t.Errorf("-batch-timeout %q: got %+v, %v; want a rejection saying positive duration", timeout, b, err)
		}
	})
}
