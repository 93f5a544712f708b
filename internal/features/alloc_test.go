package features

import (
	"testing"

	"adavp/internal/geom"
	"adavp/internal/ledger"
	"adavp/internal/video"
)

// TestSteadyStateAllocs is features' part of the allocation ledger (DESIGN
// §9.2): a warm Scratch.Detect allocates the returned features and
// sort.Slice's three fixed words — never a buffer or a band, and nothing that
// grows with the masks, the candidates or the features kept. It fans out
// three times: the streamed gradients with the table's row pass, the table's
// column pass, and the score pass.
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
	ledger.Check(t, []ledger.Row{
		{Name: "Scratch.Detect", Want: 4, Fanouts: 3, Run: func() { s.Detect(f.Pixels, masks, p) }},
	})
}
