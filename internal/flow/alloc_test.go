package flow

import (
	"testing"

	"adavp/internal/ledger"
)

// TestSteadyStateAllocs is flow's part of the allocation ledger (DESIGN
// §9.2): a warm Scratch.Track allocates the returned results only — never a
// template window, a tap table or a band. It fans out for the points and once
// for the windowed gradients of each of the three levels.
func TestSteadyStateAllocs(t *testing.T) {
	fp := track704()
	var s Scratch
	p := DefaultParams()
	ledger.Check(t, []ledger.Row{
		{Name: "Scratch.Track", Want: 1, Fanouts: 1 + 3, Run: func() { s.Track(fp.prev, fp.next, fp.pts, p) }},
	})
}
