package features

import (
	"testing"

	"adavp/internal/geom"
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

// TestSteadyStateAllocs is features' part of the allocation ledger (DESIGN
// §9.2): a warm Scratch.Detect allocates the returned features, sort.Slice's
// fixed words, and one closure header per par.Rows fan-out (four in the
// gradients, two in the table, one in the score pass) — never a buffer, and
// nothing that grows with the masks, the candidates or the features kept.
func TestSteadyStateAllocs(t *testing.T) {
	v := video.GenerateKind("v", video.KindCityStreet, 3, 8)
	f := v.FrameWithPixels(5)
	var masks []geom.Rect
	for _, o := range f.Truth {
		masks = append(masks, o.Box)
	}
	var s Scratch
	p := trackerParams()
	if n := len(s.Detect(f.Pixels, masks, p)); len(masks) < 2 || n < 10 {
		t.Fatalf("%d masks, %d features: want a few masks and a populated result", len(masks), n)
	}
	checkLedger(t, []allocRow{
		{"Scratch.Detect", 11, func() { s.Detect(f.Pixels, masks, p) }},
	})
}
