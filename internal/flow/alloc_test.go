package flow

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
// §9.2): exactly want allocs/op at one worker, and at w = 2 and 4 inside a
// par.Hold, where every fan-out reuses a parked gang; at most want·(2+w) at
// w = 2 and 4 with no hold open, where each fan-out also builds a gang and
// its band channel; want as a floor under -race, where sync.Pool drops Puts.
// Every kernel package carries the same copy.
func checkLedger(t *testing.T, rows []allocRow) {
	t.Cleanup(func() { par.SetWorkers(0) })
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, c := range []struct {
				w    int
				held bool
			}{{1, false}, {2, false}, {4, false}, {2, true}, {4, true}} {
				par.SetWorkers(c.w)
				mode, release := "unheld", func() {}
				if c.held {
					mode, release = "held", par.Hold()
				}
				r.run()
				r.run()
				got, bound := testing.AllocsPerRun(20, r.run), r.want*float64(2+c.w)
				release()
				switch {
				case raceEnabled && got < r.want:
					t.Errorf("workers=%d %s: %.1f allocs/op under -race, want at least %v", c.w, mode, got, r.want)
				case !raceEnabled && (c.w == 1 || c.held) && got != r.want:
					t.Errorf("workers=%d %s: %.1f allocs/op, want %v", c.w, mode, got, r.want)
				case !raceEnabled && got > bound:
					t.Errorf("workers=%d %s: %.1f allocs/op, want at most %v", c.w, mode, got, bound)
				}
			}
		})
	}
}

// TestSteadyStateAllocs is flow's part of the allocation ledger (DESIGN
// §9.2): a warm Scratch.Track allocates the returned results and one par.Rows
// closure header per fan-out — the points' own and the four passes of the
// windowed gradients on each of the three levels — never a template window
// or tap table.
func TestSteadyStateAllocs(t *testing.T) {
	fp := track704()
	var s Scratch
	p := DefaultParams()
	checkLedger(t, []allocRow{
		{"Scratch.Track", 1 + 1 + 4*3, func() { s.Track(fp.prev, fp.next, fp.pts, p) }},
	})
}
