package par

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"adavp/internal/leaktest"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// bandFunc adapts a func to a Band for the tests that build their bands in
// place; a kernel's band is a value its scratch owns.
type bandFunc func(lo, hi int)

func (f bandFunc) Rows(lo, hi int) { f(lo, hi) }

// fillBand writes out[i] = i over its band, as a kernel's band writes its
// rows.
type fillBand struct{ out []int }

func (b *fillBand) Rows(lo, hi int) {
	out := b.out
	for i := lo; i < hi; i++ {
		out[i] = i
	}
}

// restoreWorkers resets the pool configuration after a test.
func restoreWorkers(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { SetWorkers(0) })
}

func TestWorkersDefault(t *testing.T) {
	restoreWorkers(t)
	SetWorkers(0)
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(-5)
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative SetWorkers should reset to GOMAXPROCS, got %d", got)
	}
}

// TestRowsCoversExactlyOnce asserts the partition property the determinism
// contract rests on: every index in [0, n) is visited exactly once, for a
// spread of sizes and worker counts (including counts exceeding n).
func TestRowsCoversExactlyOnce(t *testing.T) {
	restoreWorkers(t)
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		for _, n := range []int{0, 1, 2, 3, 5, 16, 17, 31, 100, 1001} {
			SetWorkers(workers)
			counts := make([]int32, n)
			Rows(n, bandFunc(func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("workers=%d n=%d: bad band [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			}))
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestRowsBandsAreContiguous asserts bands are contiguous, ordered slices of
// [0, n): sorted by start they must tile the range with no gaps or overlaps,
// one band per worker.
func TestRowsBandsAreContiguous(t *testing.T) {
	restoreWorkers(t)
	const n = 103
	for _, workers := range []int{1, 2, 3, 4, 7} {
		SetWorkers(workers)
		var mu sync.Mutex
		var bands [][2]int
		Rows(n, bandFunc(func(lo, hi int) {
			mu.Lock()
			bands = append(bands, [2]int{lo, hi})
			mu.Unlock()
		}))
		if len(bands) != workers {
			t.Fatalf("got %d bands with %d workers", len(bands), workers)
		}
		sort.Slice(bands, func(a, b int) bool { return bands[a][0] < bands[b][0] })
		next := 0
		for _, b := range bands {
			if b[0] != next || b[1] <= b[0] {
				t.Fatalf("workers=%d: band %v does not continue at %d (bands %v)", workers, b, next, bands)
			}
			next = b[1]
		}
		if next != n {
			t.Fatalf("workers=%d: bands end at %d, want %d", workers, next, n)
		}
	}
}

// TestRowsSerialWhenOneWorker asserts that a single worker runs inline in
// one band — the scalar reference path parity tests rely on.
func TestRowsSerialWhenOneWorker(t *testing.T) {
	restoreWorkers(t)
	SetWorkers(1)
	calls := 0
	Rows(50, bandFunc(func(lo, hi int) {
		calls++
		if lo != 0 || hi != 50 {
			t.Fatalf("serial band = [%d,%d), want [0,50)", lo, hi)
		}
	}))
	if calls != 1 {
		t.Fatalf("serial path made %d calls", calls)
	}
}

// heldAndUnheld runs body once with no hold open and once inside a Hold,
// and checks after each that every gang goroutine has exited — after release
// in the held run.
func heldAndUnheld(t *testing.T, body func(t *testing.T)) {
	for _, held := range []bool{false, true} {
		name := "unheld"
		if held {
			name = "held"
		}
		t.Run(name, func(t *testing.T) {
			base := leaktest.Count()
			release := func() {}
			if held {
				release = Hold()
			}
			body(t)
			release()
			leaktest.Check(t, base)
		})
	}
}

// TestRowsConcurrentCallers races many simultaneous Rows calls, the
// situation the supervised live pipeline produces when a watchdog-abandoned
// detector call is still rendering or resizing while its retry starts.
// Run under -race (make race includes this package).
func TestRowsConcurrentCallers(t *testing.T) {
	restoreWorkers(t)
	SetWorkers(4)
	heldAndUnheld(t, func(t *testing.T) {
		const callers = 8
		const rows = 200
		var wg sync.WaitGroup
		wg.Add(callers)
		for c := 0; c < callers; c++ {
			go func(c int) {
				defer wg.Done()
				out := make([]int, rows)
				for iter := 0; iter < 50; iter++ {
					Rows(rows, bandFunc(func(lo, hi int) {
						for i := lo; i < hi; i++ {
							out[i] = c + i + iter
						}
					}))
					for i := range out {
						if out[i] != c+i+iter {
							t.Errorf("caller %d iter %d: out[%d] = %d", c, iter, i, out[i])
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
	})
}

// TestRowsReentrant asserts nested Rows calls (a parallel kernel invoked
// from inside another band, as render's drawObject can be) complete without
// deadlock and still cover their range: each nested call takes a gang of its
// own.
func TestRowsReentrant(t *testing.T) {
	restoreWorkers(t)
	SetWorkers(3)
	heldAndUnheld(t, func(t *testing.T) {
		const outer, inner = 9, 40
		var total atomic.Int64
		Rows(outer, bandFunc(func(lo, hi int) {
			for o := lo; o < hi; o++ {
				Rows(inner, bandFunc(func(ilo, ihi int) {
					total.Add(int64(ihi - ilo))
				}))
			}
		}))
		if got := total.Load(); got != outer*inner {
			t.Fatalf("nested coverage = %d, want %d", got, outer*inner)
		}
	})
}

// TestHeldRowsReusesItsGang: under a hold the first call starts a gang of w
// workers, later calls start none, and release joins the gang. A second
// release of the same hold changes nothing.
func TestHeldRowsReusesItsGang(t *testing.T) {
	restoreWorkers(t)
	SetWorkers(3)
	base := leaktest.Count()
	release := Hold()
	for i := 0; i < 10; i++ {
		Rows(30, bandFunc(func(lo, hi int) {}))
		if got := leaktest.Count(); got != base+3 {
			t.Fatalf("call %d: %d module goroutines, want %d (one parked gang of 3)", i, got, base+3)
		}
	}
	release()
	if got := leaktest.Count(); got != base {
		t.Fatalf("%d module goroutines after release, want %d: release joins the gangs it stops", got, base)
	}
	release()
	release = Hold()
	defer release()
	Rows(30, bandFunc(func(lo, hi int) {}))
	if got := leaktest.Count(); got != base+3 {
		t.Fatalf("%d module goroutines under a new hold after a double release, want %d", got, base+3)
	}
}

// TestSetWorkersStopsLargerGangs: a parked gang larger than a new worker
// count is stopped rather than kept for a call that will never use it.
func TestSetWorkersStopsLargerGangs(t *testing.T) {
	restoreWorkers(t)
	SetWorkers(4)
	base := leaktest.Count()
	release := Hold()
	defer release()
	Rows(40, bandFunc(func(lo, hi int) {}))
	SetWorkers(2)
	Rows(40, bandFunc(func(lo, hi int) {}))
	if got := leaktest.Count(); got != base+2 {
		t.Fatalf("%d module goroutines after SetWorkers(2), want %d: the gang of 4 should be stopped", got, base+2)
	}
}

// TestReleaseDuringCall: release returns while a Rows call is still blocked
// inside fn (guard's abandoned detect call), without waiting for it; the
// call's gang is stopped when the call gives it back, and its workers exit.
func TestReleaseDuringCall(t *testing.T) {
	restoreWorkers(t)
	SetWorkers(2)
	base := leaktest.Count()
	release := Hold()
	entered, unblock, returned := make(chan struct{}, 2), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(returned)
		Rows(10, bandFunc(func(lo, hi int) {
			entered <- struct{}{}
			<-unblock
		}))
	}()
	<-entered
	<-entered
	released := make(chan struct{})
	go func() {
		release()
		close(released)
	}()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		close(unblock)
		t.Fatal("release waited for a gang still in use")
	}
	close(unblock)
	<-returned
	leaktest.Check(t, base)
}

// TestHeldRowsAllocatesNothing: under a hold, a warm Rows with a band the
// caller owns allocates nothing, so it builds no gang (building one allocates
// it and its channel) and starts no goroutine.
func TestHeldRowsAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	restoreWorkers(t)
	release := Hold()
	defer release()
	b := &fillBand{out: make([]int, 512)}
	for _, w := range []int{1, 2, 4} {
		SetWorkers(w)
		Rows(len(b.out), b)
		if got := testing.AllocsPerRun(100, func() { Rows(len(b.out), b) }); got != 0 {
			t.Errorf("workers=%d: %v allocs/op under a hold, want 0", w, got)
		}
	}
}

// TestRowsKeepsNoBand: once Rows returns, par holds no reference to its
// band, so a parked gang cannot keep the band's owner alive — a pooled render
// scratch the pool has dropped, or the scratch of a detection the watchdog
// abandoned.
func TestRowsKeepsNoBand(t *testing.T) {
	restoreWorkers(t)
	release := Hold()
	defer release()
	for _, w := range []int{1, 2} {
		SetWorkers(w)
		b := &fillBand{out: make([]int, 64)}
		wp := weak.Make(b)
		Rows(len(b.out), b)
		b = nil
		runtime.GC()
		if wp.Value() != nil {
			t.Errorf("workers=%d: the band is still reachable after Rows returned", w)
		}
	}
}

// TestCallsCountsEveryRows: Calls counts each Rows call once, inline and
// nested ones included — the fan-out count each allocation ledger row pins.
func TestCallsCountsEveryRows(t *testing.T) {
	restoreWorkers(t)
	for _, w := range []int{1, 3} {
		SetWorkers(w)
		before := Calls()
		Rows(0, bandFunc(func(lo, hi int) {}))
		Rows(3, bandFunc(func(lo, hi int) {
			for range hi - lo {
				Rows(5, bandFunc(func(lo, hi int) {}))
			}
		}))
		if got := Calls() - before; got != 5 {
			t.Errorf("workers=%d: Calls advanced by %d, want 5", w, got)
		}
	}
}

// workBand runs ≈ 0.1 µs of serial arithmetic per index, or none when
// empty.
type workBand struct {
	out   []float64
	empty bool
}

func (b *workBand) Rows(lo, hi int) {
	if b.empty {
		return
	}
	out := b.out
	for i := lo; i < hi; i++ {
		x := float64(i)
		for range 64 {
			x = x*0.999 + 1
		}
		out[i] = x
	}
}

// BenchmarkRows measures one dispatch at the default worker count, with no
// hold open and inside one, at three amounts of work per call: none (the
// dispatch itself), ≈ 20 µs and ≈ 200 µs of serial work split over the
// bands. Run with -benchmem; DESIGN.md §8 records the figures.
func BenchmarkRows(b *testing.B) {
	for _, work := range []struct {
		name string
		rows int
	}{{"empty", 0}, {"20us", 200}, {"200us", 3000}} {
		band := &workBand{out: make([]float64, max(work.rows, 64)), empty: work.rows == 0}
		for _, held := range []bool{false, true} {
			name := work.name + "/unheld"
			if held {
				name = work.name + "/held"
			}
			b.Run(name, func(b *testing.B) {
				if held {
					defer Hold()()
				}
				for range b.N {
					Rows(len(band.out), band)
				}
			})
		}
	}
}
