package video

import (
	"math"
	"testing"

	"adavp/internal/par"
)

// TestKindPartition pins the benign/hostile split: the paper's 14 benign
// kinds build the datasets, the hostile presets never leak into them, and
// EveryKind covers both with no overlap.
func TestKindPartition(t *testing.T) {
	if NumKinds != 14 {
		t.Errorf("NumKinds = %d, want 14", NumKinds)
	}
	if NumHostileKinds < 6 {
		t.Errorf("NumHostileKinds = %d, want >= 6", NumHostileKinds)
	}
	for _, k := range AllKinds() {
		if k > firstHostile {
			t.Errorf("benign AllKinds contains hostile %v", k)
		}
		if !k.Valid() {
			t.Errorf("AllKinds contains invalid %v", k)
		}
	}
	for _, k := range HostileKinds() {
		if k < firstHostile || !k.Valid() {
			t.Errorf("HostileKinds contains non-hostile or invalid %v", k)
		}
	}
	if got := len(EveryKind()); got != NumKinds+NumHostileKinds {
		t.Errorf("EveryKind has %d kinds, want %d", got, NumKinds+NumHostileKinds)
	}
	if firstHostile.Valid() {
		t.Error("the firstHostile marker must not be a valid kind")
	}
	names := make(map[string]bool)
	for _, k := range EveryKind() {
		if names[k.String()] {
			t.Errorf("duplicate kind name %q", k)
		}
		names[k.String()] = true
	}
}

// TestHostileParams sanity-checks the hostile presets: each is valid, tagged
// with its own kind, and actually enables at least one stressor (or the
// dense-crowd population for the occlusion storm).
func TestHostileParams(t *testing.T) {
	for _, k := range HostileKinds() {
		p := ScenarioParams(k)
		if p.Kind != k {
			t.Errorf("%v: preset carries kind %v", k, p.Kind)
		}
		if p.W <= 0 || p.H <= 0 || p.FPS <= 0 {
			t.Errorf("%v: invalid geometry %dx%d@%d", k, p.W, p.H, p.FPS)
		}
		stressed := p.LumaRampDepth > 0 || p.FlickerAmp > 0 || p.RainDensity > 0 ||
			p.FogDensity > 0 || p.SceneCutPeriodSec > 0 || p.ShakeAmp > 0 ||
			p.FrameDropRate > 0 || p.DeadSensor || p.MinObjects >= 100 ||
			p.SpeedMax == 0
		if !stressed {
			t.Errorf("%v: preset enables no stressor", k)
		}
	}
	if p := ScenarioParams(KindOcclusionStorm); p.MinObjects < 100 {
		t.Errorf("occlusion storm floor = %d objects, want >= 100", p.MinObjects)
	}
}

// TestGenerateParityAllKinds is the two-run byte-parity gate over the full
// scenario surface — all 14 benign kinds plus every hostile preset — at two
// worker counts: same (kind, seed, frames) must reproduce identical ground
// truth and identical rasters regardless of parallelism. This is what lets
// the chaos soak promise byte-identical same-seed runs while mixing hostile
// scenarios freely.
func TestGenerateParityAllKinds(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	const frames = 24
	for _, k := range EveryKind() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			par.SetWorkers(1)
			a := GenerateKind("parity-a", k, 31, frames)
			probe := []int{0, frames / 2, frames - 1}
			refPix := make(map[int][]float32, len(probe))
			for _, f := range probe {
				refPix[f] = a.Render(f).Pix
			}
			par.SetWorkers(4)
			b := GenerateKind("parity-b", k, 31, frames)
			for i := 0; i < frames; i++ {
				ta, tb := a.Truth(i), b.Truth(i)
				if len(ta) != len(tb) {
					t.Fatalf("frame %d: truth count %d vs %d", i, len(ta), len(tb))
				}
				for j := range ta {
					if ta[j] != tb[j] {
						t.Fatalf("frame %d: truth object %d differs: %+v vs %+v", i, j, ta[j], tb[j])
					}
				}
			}
			for _, f := range probe {
				got := b.Render(f).Pix
				ref := refPix[f]
				for i := range ref {
					if math.Float32bits(ref[i]) != math.Float32bits(got[i]) {
						t.Fatalf("frame %d pixel %d differs across runs/workers (%v vs %v)",
							f, i, ref[i], got[i])
					}
				}
			}
		})
	}
}

// TestFrameDropRepeatsFrames: under FrameDropRate a dropped frame repeats
// the previous delivered frame exactly — truth and raster — and some frames
// are actually dropped at the preset rate.
func TestFrameDropRepeatsFrames(t *testing.T) {
	const frames = 90
	v := GenerateKind("drops", KindStrobeDrop, 5, frames)
	if v.srcFrame == nil {
		t.Fatal("strobe-drop video has no drop schedule")
	}
	dropped := 0
	for i := 1; i < frames; i++ {
		if v.srcFrame[i] == i {
			continue
		}
		dropped++
		src := v.srcFrame[i]
		ta, tb := v.Truth(i), v.Truth(src)
		if len(ta) != len(tb) {
			t.Fatalf("dropped frame %d truth differs from source %d", i, src)
		}
		a, b := v.Render(i).Pix, v.Render(src).Pix
		for j := range a {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				t.Fatalf("dropped frame %d raster differs from source %d at pixel %d", i, src, j)
			}
		}
	}
	if dropped < frames/10 || dropped > frames*3/4 {
		t.Errorf("%d of %d frames dropped, outside the plausible band for rate %.2f",
			dropped, frames, v.Params.FrameDropRate)
	}
}

// TestDeadSensorIsBlackAndEmpty: the dead-sensor preset yields empty ground
// truth and all-zero rasters on every frame.
func TestDeadSensorIsBlackAndEmpty(t *testing.T) {
	v := GenerateKind("dead", KindDeadSensor, 9, 30)
	for i := 0; i < v.NumFrames(); i++ {
		if len(v.Truth(i)) != 0 {
			t.Fatalf("frame %d: dead sensor has %d truth objects", i, len(v.Truth(i)))
		}
	}
	for _, f := range []int{0, 15, 29} {
		for j, px := range v.Render(f).Pix {
			if px != 0 {
				t.Fatalf("frame %d pixel %d = %v, want 0 (black)", f, j, px)
			}
		}
	}
}

// TestSceneCutInvalidatesScene: across every cut boundary the camera jumps
// past the keep margin, so no object survives into the next segment.
func TestSceneCutInvalidatesScene(t *testing.T) {
	p := ScenarioParams(KindSceneCut)
	cut := int(p.SceneCutPeriodSec * float64(p.FPS))
	v := Generate("cuts", p, 13, 3*cut)
	for _, boundary := range []int{cut, 2 * cut} {
		before := map[int]bool{}
		for _, o := range v.Truth(boundary - 1) {
			before[o.ID] = true
		}
		for off := 0; off < cut-1; off++ {
			for _, o := range v.Truth(boundary + off) {
				if before[o.ID] {
					t.Fatalf("object %d survived the cut at frame %d (seen again at %d)",
						o.ID, boundary, boundary+off)
				}
			}
		}
	}
}

// TestSpliceDelegatesToParts: a spliced video's truth and rasters match its
// parts frame for frame, and PartIndex maps boundaries correctly.
func TestSpliceDelegatesToParts(t *testing.T) {
	a := GenerateKind("part-a", KindHighway, 3, 20)
	b := GenerateKind("part-b", KindFogBank, 4, 15)
	s := Splice("spliced", a, b)
	if s.NumFrames() != 35 {
		t.Fatalf("spliced frames = %d, want 35", s.NumFrames())
	}
	checks := []struct{ i, part, local int }{{0, 0, 0}, {19, 0, 19}, {20, 1, 0}, {34, 1, 14}}
	for _, c := range checks {
		part, local := s.PartIndex(c.i)
		if part != c.part || local != c.local {
			t.Errorf("PartIndex(%d) = (%d,%d), want (%d,%d)", c.i, part, local, c.part, c.local)
		}
	}
	for i := 0; i < s.NumFrames(); i++ {
		var want []float32
		if i < 20 {
			want = a.Render(i).Pix
		} else {
			want = b.Render(i - 20).Pix
		}
		got := s.Render(i).Pix
		for j := range want {
			if math.Float32bits(want[j]) != math.Float32bits(got[j]) {
				t.Fatalf("spliced frame %d pixel %d differs from its part", i, j)
			}
		}
	}
}
