package video

import (
	"testing"

	"adavp/internal/imgproc"
	"adavp/internal/ledger"
)

// TestSteadyStateAllocs is video's part of the allocation ledger (DESIGN
// §9.2). RenderInto's per-frame tables and its bands come from the pooled
// renderScratch, so a warm call allocates nothing. It fans out once per
// object drawn, once for the stressors when a preset has any and once for
// the sensor noise. A moving camera's frame adds one fan-out for its
// background; a static camera copies the background its video's first
// render built, which is not a fan-out. The highway frame (static) and the
// car-highway frame (moving) each draw three objects. The rainstorm row adds
// the stressor pass to a shaking camera, and its deformation is so large
// that texture samples leave their lattice window and take the valueNoise
// fallback.
func TestSteadyStateAllocs(t *testing.T) {
	v := GenerateKind("v", KindHighway, 3, 12)
	dst := imgproc.NewGray(v.Params.W, v.Params.H)
	moving := GenerateKind("moving", KindCarHighway, 3, 12)
	storm := GenerateKind("storm", KindRainstorm, 3, 12)
	storm.Params.Deform = 1e16
	ledger.Check(t, []ledger.Row{
		{Name: "Video.RenderInto", Want: 0, Fanouts: 4, Run: func() { v.RenderInto(5, dst) }},
		{Name: "Video.RenderInto(car-highway)", Want: 0, Fanouts: 5, Run: func() { moving.RenderInto(5, dst) }},
		{Name: "Video.RenderInto(rainstorm)", Want: 0, Fanouts: 6, Run: func() { storm.RenderInto(5, dst) }},
	})
}
