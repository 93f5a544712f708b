package video

import (
	"testing"

	"adavp/internal/imgproc"
	"adavp/internal/ledger"
)

// TestSteadyStateAllocs is video's part of the allocation ledger (DESIGN
// §9.2). RenderInto's per-frame tables and its bands come from the pooled
// renderScratch, so a warm call allocates nothing. It fans out once for the
// background, once per object drawn, once for the stressors when a preset
// has any and once for the sensor noise. The highway frame draws three
// objects. The rainstorm row adds the stressor pass, and its deformation is
// so large that texture samples leave their lattice window and take the
// valueNoise fallback.
func TestSteadyStateAllocs(t *testing.T) {
	v := GenerateKind("v", KindHighway, 3, 12)
	dst := imgproc.NewGray(v.Params.W, v.Params.H)
	storm := GenerateKind("storm", KindRainstorm, 3, 12)
	storm.Params.Deform = 1e16
	ledger.Check(t, []ledger.Row{
		{Name: "Video.RenderInto", Want: 0, Fanouts: 5, Run: func() { v.RenderInto(5, dst) }},
		{Name: "Video.RenderInto(rainstorm)", Want: 0, Fanouts: 6, Run: func() { storm.RenderInto(5, dst) }},
	})
}
