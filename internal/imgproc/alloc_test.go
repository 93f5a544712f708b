package imgproc

import (
	"testing"

	"adavp/internal/par"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// allocRow is one entry point of the steady-state allocation ledger: run
// calls it on warm state, and want is its exact allocs/op at one worker.
type allocRow struct {
	name string
	want float64
	run  func()
}

// checkLedger warms each row twice and holds it to the ledger's rule (DESIGN.md
// §9.2): exactly want allocs/op at one worker; at most want·(2+w) at w = 2
// and 4, since a par.Rows fan-out adds a WaitGroup and w band closures to its
// closure header; want as a floor under -race, where sync.Pool drops Puts.
// Every kernel package carries the same copy.
func checkLedger(t *testing.T, rows []allocRow) {
	t.Cleanup(func() { par.SetWorkers(0) })
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 4} {
				par.SetWorkers(w)
				r.run()
				r.run()
				got, bound := testing.AllocsPerRun(20, r.run), r.want*float64(2+w)
				switch {
				case raceEnabled && got < r.want:
					t.Errorf("workers=%d: %.1f allocs/op under -race, want at least %v", w, got, r.want)
				case !raceEnabled && w == 1 && got != r.want:
					t.Errorf("workers=1: %.1f allocs/op, want %v", got, r.want)
				case !raceEnabled && got > bound:
					t.Errorf("workers=%d: %.1f allocs/op, want at most %v", w, got, bound)
				}
			}
		})
	}
}

// TestSteadyStateAllocs is imgproc's part of the allocation ledger (DESIGN
// §9.2). Every count is one par.Rows closure header per fan-out — two passes
// per blur and per reduction, four per gradient pair, one per pass of the
// summed-area table and of the resize — and never a buffer: the temporaries
// come from the Scratch free list, the resize tap tables from their pool. A
// downscale's taps all fall inside the source; only the upscale row reaches
// the clamped Bilinear path at the borders.
func TestSteadyStateAllocs(t *testing.T) {
	g := testImage(704, 396)
	var s Scratch
	blur, gx, gy := NewGray(g.W, g.H), NewGray(g.W, g.H), NewGray(g.W, g.H)
	half, small, big := NewGray(g.W/2, g.H/2), NewGray(512, 288), NewGray(800, 450)
	var pyr Pyramid
	var it Integral
	checkLedger(t, []allocRow{
		{"GaussianBlurInto", 2, func() { GaussianBlurInto(blur, g, 1.5, &s) }},
		{"GradientsInto", 4, func() { GradientsInto(gx, gy, g, &s) }},
		{"Downsample2Into", 2, func() { Downsample2Into(half, g, &s) }},
		{"Pyramid.Rebuild", 4, func() { pyr.Rebuild(g, 3, &s) }},
		{"Integral.Rebuild", 2, func() { it.Rebuild(g) }},
		{"ResizeInto", 1, func() { g.ResizeInto(small) }},
		{"ResizeInto(upscale)", 1, func() { g.ResizeInto(big) }},
	})
}
