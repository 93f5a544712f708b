// Package ledger is the steady-state allocation ledger that every pixel
// kernel package's TestSteadyStateAllocs holds its entry points to (DESIGN.md
// §9.2). It lives outside the kernel packages because another package's
// _test.go file cannot be imported.
package ledger

import (
	"testing"

	"adavp/internal/par"
)

// Row is one entry point of the ledger: Run calls it on warm state, Want is
// its exact allocs/op and Fanouts its exact number of par.Rows calls.
type Row struct {
	Name    string
	Want    float64
	Fanouts uint64
	Run     func()
}

// Check warms each row twice and holds it to the ledger's rule at one worker,
// and at w = 2 and 4 with and without a par.Hold:
//
//   - every run makes exactly Fanouts par.Rows calls, so a fan-out nested in
//     a band, which allocates nothing, still shows;
//   - exactly Want allocs/op at one worker, and inside a hold, where every
//     fan-out reuses a parked gang;
//   - at most Want + 2·Fanouts with no hold open, where a fan-out builds a
//     gang and its band channel for its one call;
//   - Want as a floor under -race, where sync.Pool drops a random share of
//     Puts.
func Check(t *testing.T, rows []Row) {
	t.Helper()
	t.Cleanup(func() { par.SetWorkers(0) })
	for _, r := range rows {
		t.Run(r.Name, func(t *testing.T) {
			for _, c := range []struct {
				w    int
				held bool
			}{{1, false}, {2, false}, {4, false}, {2, true}, {4, true}} {
				par.SetWorkers(c.w)
				mode, release := "unheld", func() {}
				if c.held {
					mode, release = "held", par.Hold()
				}
				r.Run()
				before := par.Calls()
				r.Run()
				fanouts := par.Calls() - before
				got, bound := testing.AllocsPerRun(20, r.Run), r.Want+2*float64(r.Fanouts)
				release()
				if fanouts != r.Fanouts {
					t.Errorf("workers=%d %s: %d par.Rows calls, want %d", c.w, mode, fanouts, r.Fanouts)
				}
				switch {
				case raceEnabled && got < r.Want:
					t.Errorf("workers=%d %s: %.1f allocs/op under -race, want at least %v", c.w, mode, got, r.Want)
				case !raceEnabled && (c.w == 1 || c.held) && got != r.Want:
					t.Errorf("workers=%d %s: %.1f allocs/op, want %v", c.w, mode, got, r.Want)
				case !raceEnabled && got > bound:
					t.Errorf("workers=%d %s: %.1f allocs/op, want at most %v", c.w, mode, got, bound)
				}
			}
		})
	}
}
