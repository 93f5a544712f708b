package track

import (
	"testing"

	"adavp/internal/par"
	"adavp/internal/video"
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

// TestSteadyStateAllocs is track's part of the allocation ledger (DESIGN
// §9.2): a warm PixelTracker.Step allocates the published detections, the
// flow results, and the par.Rows closure headers of the pyramid rebuild and
// of Scratch.Track — never a pyramid level, a flow batch or a displacement
// list, which the tracker keeps across steps.
func TestSteadyStateAllocs(t *testing.T) {
	v := video.GenerateKind("v", video.KindHighway, 3, 12)
	ref, next := v.FrameWithPixels(4), v.FrameWithPixels(5)
	tr := NewPixelTracker()
	if n := tr.Init(ref, oracleDets(ref.Truth)); n == 0 {
		t.Fatal("Init found no features to track")
	}
	checkLedger(t, []allocRow{
		{"PixelTracker.Step", 19, func() { tr.Step(next) }},
	})
}
