package detect

import (
	"testing"

	"adavp/internal/core"
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

// TestSteadyStateAllocs is detect's part of the allocation ledger (DESIGN
// §9.2): a warm BlobDetector.Detect at a setting that resizes allocates the
// returned detections, sort.SliceStable's fixed words and the par.Rows
// closure headers of the resize and the threshold pass — never a mask, a
// flood-fill stack, a component list or a resized raster, which live in the
// pooled blobScratch.
func TestSteadyStateAllocs(t *testing.T) {
	v := video.GenerateKind("v", video.KindHighway, 3, 12)
	f := v.FrameWithPixels(5)
	d := NewBlobDetector()
	if n := len(d.Detect(f, core.Setting512)); n == 0 {
		t.Fatal("the frame yields no detections")
	}
	checkLedger(t, []allocRow{
		{"BlobDetector.Detect", 6, func() { d.Detect(f, core.Setting512) }},
	})
}
