package track

import (
	"testing"

	"adavp/internal/ledger"
	"adavp/internal/video"
)

// TestSteadyStateAllocs is track's part of the allocation ledger (DESIGN
// §9.2): a warm PixelTracker.Step allocates the published detections and the
// flow results — never a pyramid level, a flow batch, a displacement list or
// a band, which the tracker keeps across steps. It fans out four times for
// the pyramid rebuild and four times in Scratch.Track.
func TestSteadyStateAllocs(t *testing.T) {
	v := video.GenerateKind("v", video.KindHighway, 3, 12)
	ref, next := v.FrameWithPixels(4), v.FrameWithPixels(5)
	tr := NewPixelTracker()
	if n := tr.Init(ref, oracleDets(ref.Truth)); n == 0 {
		t.Fatal("Init found no features to track")
	}
	ledger.Check(t, []ledger.Row{
		{Name: "PixelTracker.Step", Want: 2, Fanouts: 4 + 4, Run: func() { tr.Step(next) }},
	})
}
