package video

import (
	"fmt"
	"math"
	"testing"

	"adavp/internal/geom"
	"adavp/internal/imgproc"
	"adavp/internal/par"
)

// parityWorkers are the worker counts every raster is rendered at: the serial
// path, an even split, and two that leave ragged last bands.
var parityWorkers = []int{1, 2, 3, 7}

// requireMatchesRef renders frame i through Render and through RenderInto
// (into a raster full of NaNs, so a pixel left unwritten shows) at every
// worker count and compares each raster with renderRef bit for bit.
func requireMatchesRef(t *testing.T, v *Video, i int) {
	t.Helper()
	defer par.SetWorkers(0)
	ref := v.renderRef(i)
	dirty := imgproc.NewGray(v.Params.W, v.Params.H)
	for _, workers := range parityWorkers {
		par.SetWorkers(workers)
		dirty.Fill(float32(math.NaN()))
		v.RenderInto(i, dirty)
		for name, got := range map[string]*imgproc.Gray{"Render": v.Render(i), "RenderInto": dirty} {
			if got.W != ref.W || got.H != ref.H {
				t.Fatalf("%s frame %d %s: %dx%d raster, reference is %dx%d", v.Name, i, name, got.W, got.H, ref.W, ref.H)
			}
			for p := range ref.Pix {
				if math.Float32bits(ref.Pix[p]) != math.Float32bits(got.Pix[p]) {
					t.Fatalf("%s frame %d %s workers=%d: pixel (%d,%d) = %v, reference %v",
						v.Name, i, name, workers, p%ref.W, p/ref.W, got.Pix[p], ref.Pix[p])
				}
			}
		}
	}
}

// TestRenderParityAcrossWorkerCounts asserts the banded-parallel renderer is
// bitwise-identical at every worker count (workers=1 is the serial reference
// path). Rendering purity is what the whole determinism story — identical
// sim and experiment outputs regardless of hardware — rests on.
func TestRenderParityAcrossWorkerCounts(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	v := GenerateKind("parity", KindCityStreet, 7, 40)
	frames := []int{0, 7, 25, 39}
	par.SetWorkers(1)
	refs := make(map[int][]float32)
	for _, f := range frames {
		refs[f] = v.Render(f).Pix
	}
	for _, workers := range []int{2, 3, 4, 8} {
		par.SetWorkers(workers)
		for _, f := range frames {
			got := v.Render(f).Pix
			ref := refs[f]
			for i := range ref {
				if math.Float32bits(ref[i]) != math.Float32bits(got[i]) {
					t.Fatalf("workers=%d frame %d: pixel %d differs (%v vs %v)",
						workers, f, i, ref[i], got[i])
				}
			}
		}
	}
}

// TestRenderParityWithSensorNoiseAndBlur covers the remaining raster paths:
// sensor noise (per-pixel hash) and fast objects (multi-tap motion blur that
// reads the background under its own pixel).
func TestRenderParityWithSensorNoiseAndBlur(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	v := GenerateKind("parity-fast", KindRacetrack, 11, 30)
	if v.Params.SensorNoise <= 0 {
		v.Params.SensorNoise = 0.01
	}
	par.SetWorkers(1)
	ref := v.Render(15).Pix
	for _, workers := range []int{2, 5} {
		par.SetWorkers(workers)
		got := v.Render(15).Pix
		for i := range ref {
			if math.Float32bits(ref[i]) != math.Float32bits(got[i]) {
				t.Fatalf("workers=%d: pixel %d differs", workers, i)
			}
		}
	}
}

// TestRenderMatchesReference is the renderer's parity pin: hoisting the
// lattice hashes, column tables and noise terms out of the pixel loops must
// not move a bit of any raster, for every scenario kind (the hostile presets
// add rain, fog, exposure ramps, dropped frames, scene cuts and the dead
// sensor) at the default and the benchmark's resolution.
func TestRenderMatchesReference(t *testing.T) {
	for _, size := range [][2]int{{320, 180}, {704, 396}} {
		for _, k := range EveryKind() {
			p := ScenarioParams(k)
			p.W, p.H = size[0], size[1]
			v := Generate(fmt.Sprintf("%v-%dx%d", k, p.W, p.H), p, 7, 40)
			for _, f := range []int{0, 7, 23, 39} {
				requireMatchesRef(t, v, f)
			}
		}
	}
}

// TestRenderMatchesReferenceEdgeCases drives the table arithmetic where it
// could part from the per-pixel form.
func TestRenderMatchesReferenceEdgeCases(t *testing.T) {
	gen := func(name string, w, h int) *Video {
		p := ScenarioParams(KindCityStreet)
		p.W, p.H = w, h
		p.SensorNoise = 0.01
		return Generate(name, p, 11, 12)
	}
	t.Run("negative-camera", func(t *testing.T) {
		// The lattice floor crosses 0 inside the frame on both axes.
		v := gen("negative-camera", 320, 180)
		v.camX[5], v.camY[5] = -37.3, -100.9
		v.camX[6], v.camY[6] = -320-24*3, -12
		requireMatchesRef(t, v, 5)
		requireMatchesRef(t, v, 6)
	})
	t.Run("deform-out-of-window", func(t *testing.T) {
		// A slide so large that adding it rounds texture coordinates to a
		// 16- or 32-cell grid: samples land outside the object's lattice
		// window and must take the valueNoise fallback.
		v := gen("deform-out-of-window", 320, 180)
		if len(v.render[9]) == 0 {
			t.Fatal("frame 9 draws no object")
		}
		v.Params.Deform = 1e16
		requireMatchesRef(t, v, 9)
		v.Params.Deform = 3e16
		requireMatchesRef(t, v, 9)
	})
	t.Run("nine-tap-blur", func(t *testing.T) {
		v := gen("nine-tap-blur", 320, 180)
		objs := v.render[4]
		if len(objs) == 0 {
			t.Fatal("frame 4 draws no object")
		}
		for k := range objs {
			objs[k].vel = geom.Point{X: 19 - 7*float64(k), Y: 6}
		}
		requireMatchesRef(t, v, 4)
	})
	for _, size := range [][2]int{{1, 1}, {3, 2}} {
		t.Run(fmt.Sprintf("%dx%d", size[0], size[1]), func(t *testing.T) {
			v := gen("tiny", size[0], size[1])
			// Cover the few pixels there are with an object.
			v.render[3] = append(v.render[3], renderObject{id: 1 << 20, class: 1,
				box: geom.Rect{Left: -2, Top: -2, W: 6, H: 6}, vel: geom.Point{X: 2}})
			for f := 0; f < 4; f++ {
				requireMatchesRef(t, v, f)
			}
		})
	}
}

// FuzzRenderInto holds RenderInto to renderRef bit for bit over scenario
// kind, seed and frame index, at one worker and at several
// (requireMatchesRef). Frames are 160×90 so a fuzzing run tries many videos;
// the video is generated up to the frame it renders. The seed corpus, one
// entry per kind, runs under plain go test.
func FuzzRenderInto(f *testing.F) {
	kinds := EveryKind()
	for i := range kinds {
		f.Add(uint8(i), uint64(i+1), uint8(5*i))
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed uint64, frame uint8) {
		p := ScenarioParams(kinds[int(kind)%len(kinds)])
		p.W, p.H = 160, 90
		i := int(frame) % 64
		requireMatchesRef(t, Generate("fuzz", p, seed, i+1), i)
	})
}

// TestRenderIntoDelegatesAndZeroFills covers the paths that never reach the
// pixel loops: out-of-range indices and the dead sensor leave a dirty raster
// all zero, and a spliced video renders through its parts.
func TestRenderIntoDelegatesAndZeroFills(t *testing.T) {
	a := GenerateKind("a", KindHighway, 3, 6)
	b := GenerateKind("b", KindStrobeDrop, 4, 6)
	dead := GenerateKind("dead", KindDeadSensor, 5, 6)
	sp := Splice("spliced", a, dead, b)
	dirty := imgproc.NewGray(a.Params.W, a.Params.H)
	for _, i := range []int{-1, sp.NumFrames(), 7} {
		dirty.Fill(0.5)
		sp.RenderInto(i, dirty)
		for p, px := range dirty.Pix {
			if px != 0 {
				t.Fatalf("frame %d: pixel %d = %v, want an all-zero raster", i, p, px)
			}
		}
	}
	for _, i := range []int{0, 5, 12, 17} {
		requireMatchesRef(t, sp, i)
	}
	defer func() {
		if recover() == nil {
			t.Error("RenderInto accepted a raster of the wrong size")
		}
	}()
	a.RenderInto(0, imgproc.NewGray(a.Params.W, a.Params.H+1))
}

// TestHash2Pinned holds hash2 to values recorded before it was split into
// column and row terms; the renderer and its reference both build on it.
func TestHash2Pinned(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		x, y int64
	}{{0, 0, 0}, {7, -3, 12}, {0x5bd1e995, 1 << 40, -1}} {
		if got, want := hash2(c.seed, c.x, c.y), hash2Ref(c.seed, c.x, c.y); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("hash2(%#x, %d, %d) = %v, want %v", c.seed, c.x, c.y, got, want)
		}
	}
}
