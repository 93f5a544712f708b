package detect

import (
	"testing"

	"adavp/internal/core"
	"adavp/internal/ledger"
	"adavp/internal/video"
)

// TestSteadyStateAllocs is detect's part of the allocation ledger (DESIGN
// §9.2): a warm BlobDetector.Detect at a setting that resizes allocates the
// returned detections and sort.SliceStable's fixed words — never a mask, a
// flood-fill stack, a component list, a resized raster or a band, which live
// in the pooled blobScratch and the resize's tap tables. It fans out for the
// resize and the threshold pass.
func TestSteadyStateAllocs(t *testing.T) {
	v := video.GenerateKind("v", video.KindHighway, 3, 12)
	f := v.FrameWithPixels(5)
	d := NewBlobDetector()
	if n := len(d.Detect(f, core.Setting512)); n == 0 {
		t.Fatal("the frame yields no detections")
	}
	ledger.Check(t, []ledger.Row{
		{Name: "BlobDetector.Detect", Want: 4, Fanouts: 2, Run: func() { d.Detect(f, core.Setting512) }},
	})
}
