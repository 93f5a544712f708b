package video

import (
	"testing"

	"adavp/internal/imgproc"
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

// TestSteadyStateAllocs is video's part of the allocation ledger (DESIGN
// §9.2). RenderInto's per-frame tables come from the pooled renderScratch, so
// a warm call allocates closures only: the band closures of the background,
// stressor and sensor-noise passes, and for each object drawn its band
// closure and its shape closure. The highway frame draws three objects. The
// rainstorm row adds the stressor pass, and its deformation is so large that
// texture samples leave their lattice window and take the valueNoise
// fallback.
func TestSteadyStateAllocs(t *testing.T) {
	v := GenerateKind("v", KindHighway, 3, 12)
	dst := imgproc.NewGray(v.Params.W, v.Params.H)
	storm := GenerateKind("storm", KindRainstorm, 3, 12)
	storm.Params.Deform = 1e16
	checkLedger(t, []allocRow{
		{"Video.RenderInto", 8, func() { v.RenderInto(5, dst) }},
		{"Video.RenderInto(rainstorm)", 9, func() { storm.RenderInto(5, dst) }},
	})
}
