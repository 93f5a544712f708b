package par

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// restoreWorkers resets the pool configuration after a test.
func restoreWorkers(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { SetWorkers(0) })
}

func TestWorkersDefault(t *testing.T) {
	restoreWorkers(t)
	SetWorkers(0)
	if got := Workers(); got != runtime.NumCPU() {
		t.Fatalf("default Workers() = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(-5)
	if got := Workers(); got != runtime.NumCPU() {
		t.Fatalf("negative SetWorkers should reset to NumCPU, got %d", got)
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
			Rows(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("workers=%d n=%d: bad band [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
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
		Rows(n, func(lo, hi int) {
			mu.Lock()
			bands = append(bands, [2]int{lo, hi})
			mu.Unlock()
		})
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
	Rows(50, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 50 {
			t.Fatalf("serial band = [%d,%d), want [0,50)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("serial path made %d calls", calls)
	}
}

// TestRowsConcurrentCallers races many simultaneous Rows calls, the
// situation the supervised live pipeline produces when a watchdog-abandoned
// detector call is still rendering or resizing while its retry starts.
// Run under -race (make race includes this package).
func TestRowsConcurrentCallers(t *testing.T) {
	restoreWorkers(t)
	SetWorkers(4)
	const callers = 8
	const rows = 200
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			out := make([]int, rows)
			for iter := 0; iter < 50; iter++ {
				Rows(rows, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] = c + i + iter
					}
				})
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
}

// TestRowsReentrant asserts nested Rows calls (a parallel kernel invoked
// from inside another band, as render's drawObject can be) complete without
// deadlock and still cover their range.
func TestRowsReentrant(t *testing.T) {
	restoreWorkers(t)
	SetWorkers(3)
	const outer, inner = 9, 40
	var total atomic.Int64
	Rows(outer, func(lo, hi int) {
		for o := lo; o < hi; o++ {
			Rows(inner, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if got := total.Load(); got != outer*inner {
		t.Fatalf("nested coverage = %d, want %d", got, outer*inner)
	}
}
