package track

import (
	"math"
	"testing"

	"adavp/internal/par"
	"adavp/internal/video"
)

// TestPixelTrackerPyramidReuseDeterministic asserts the frame-over-frame
// pyramid buffer swap changes nothing observable: a tracker stepped through
// a sequence (buffers reused from the second Step on) produces bitwise the
// same boxes and velocities as a fresh tracker re-run, at several worker
// counts, and re-Init recycles the buffers without corrupting results.
func TestPixelTrackerPyramidReuseDeterministic(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	v := video.GenerateKind("reuse", video.KindCityStreet, 13, 30)

	run := func() ([][]float64, []float64) {
		tr := NewPixelTracker()
		var boxes [][]float64
		var vels []float64
		for _, start := range []int{0, 12} { // second Init must recycle cleanly
			ref := v.FrameWithPixels(start)
			tr.Init(ref, oracleDets(ref.Truth))
			for i := 1; i <= 8; i++ {
				f := v.FrameWithPixels(start + i)
				dets, vel := tr.Step(f)
				row := make([]float64, 0, len(dets)*4)
				for _, d := range dets {
					row = append(row, d.Box.Left, d.Box.Top, d.Box.W, d.Box.H)
				}
				boxes = append(boxes, row)
				vels = append(vels, vel)
			}
		}
		return boxes, vels
	}

	par.SetWorkers(1)
	refBoxes, refVels := run()
	for _, workers := range []int{2, 4} {
		par.SetWorkers(workers)
		gotBoxes, gotVels := run()
		if len(gotBoxes) != len(refBoxes) {
			t.Fatalf("workers=%d: %d steps vs %d", workers, len(gotBoxes), len(refBoxes))
		}
		for s := range refBoxes {
			if len(gotBoxes[s]) != len(refBoxes[s]) {
				t.Fatalf("workers=%d step %d: %d box coords vs %d",
					workers, s, len(gotBoxes[s]), len(refBoxes[s]))
			}
			for i := range refBoxes[s] {
				if math.Float64bits(gotBoxes[s][i]) != math.Float64bits(refBoxes[s][i]) {
					t.Fatalf("workers=%d step %d coord %d: %v vs %v",
						workers, s, i, gotBoxes[s][i], refBoxes[s][i])
				}
			}
			if math.Float64bits(gotVels[s]) != math.Float64bits(refVels[s]) {
				t.Fatalf("workers=%d step %d velocity: %v vs %v",
					workers, s, gotVels[s], refVels[s])
			}
		}
	}
}
