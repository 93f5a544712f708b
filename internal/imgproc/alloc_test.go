package imgproc

import (
	"testing"

	"adavp/internal/par"
)

// TestResizeIntoAllocFree pins the steady-state allocation count of the
// resize kernel. The only permitted
// steady-state allocation is the fixed goroutine-closure header of the
// par.Rows call (fn escapes into the spawn path even when the call inlines
// serially) — one size-independent allocation, never a buffer.
func TestResizeIntoAllocFree(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		src := NewGray(704, 396)
		for i := range src.Pix {
			src.Pix[i] = float32(i%251) / 251
		}
		dst := NewGray(512, 288)
		src.ResizeInto(dst) // warm the tap pool and any lazy state
		allocs := testing.AllocsPerRun(20, func() { src.ResizeInto(dst) })
		// Budget: the par.Rows closure header plus per-band goroutine spawn
		// overhead; the workers=1 case must be exactly the closure header —
		// any tap-table refill (the BENCH allocs_op 3-vs-2 regression) blows
		// through it.
		budget := float64(1)
		if workers > 1 {
			budget = float64(1 + 3*workers)
		}
		if allocs > budget {
			t.Errorf("workers=%d: ResizeInto allocates %.1f allocs/op in steady state (budget %.0f)",
				workers, allocs, budget)
		}
		t.Logf("workers=%d: %.1f allocs/op", workers, allocs)
	}
}
