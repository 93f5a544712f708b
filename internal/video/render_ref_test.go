package video

import (
	"math"
	"sort"

	"adavp/internal/imgproc"
	"adavp/internal/par"
)

// bandFunc adapts a func to a par.Band, for the references that build their
// bands in place.
type bandFunc func(lo, hi int)

func (f bandFunc) Rows(lo, hi int) { f(lo, hi) }

// This file keeps the renderer exactly as it was before RenderInto hoisted
// its per-pixel invariants: every background pixel, object pixel and blur tap
// hashes its own lattice corners, and every noise pixel mixes both of hash2's
// terms. It is the golden reference TestRenderMatchesReference compares
// against bit for bit, the same "one parallel body, one scalar reference"
// rule internal/imgproc/ref.go follows; it must not be optimized.
// applyStressors, ObjectLuma and mix64 are shared with the renderer.

// renderRef is Render as it stood before the hoisting: the per-pixel form.
func (v *Video) renderRef(i int) *imgproc.Gray {
	w, h := v.Params.W, v.Params.H
	img := imgproc.NewGray(w, h)
	if i < 0 || i >= len(v.truth) {
		return img
	}
	if len(v.parts) > 0 {
		// Spliced video: the owning part's seed anchors its textures.
		pi, local := v.PartIndex(i)
		return v.parts[pi].renderRef(local)
	}
	if v.Params.DeadSensor {
		// Sensor failure: all-black frames (NewGray zero-fills).
		return img
	}
	if v.srcFrame != nil {
		// A dropped frame repeats its source frame exactly: every seed below
		// keys on the source index, so the rasters are identical.
		i = v.srcFrame[i]
	}
	camX, camY := v.camX[i], v.camY[i]
	bgSeed := v.seed ^ 0x5bd1e995

	// Background: fractal noise in world coordinates so camera pan and ego
	// scroll translate it exactly like real scenery. Rows are independent,
	// so the raster fills in parallel bands; every pixel runs the same
	// scalar expression, keeping rendering pure at any worker count.
	par.Rows(h, bandFunc(func(lo, hi int) {
		for y := lo; y < hi; y++ {
			wy := (float64(y) + camY) / bgScale
			row := img.Row(y)
			for x := 0; x < w; x++ {
				wx := (float64(x) + camX) / bgScale
				n := fbmNoise(bgSeed, wx, wy, 2)
				row[x] = float32(bgLow + n*(bgHigh-bgLow))
			}
		}
	}))

	// Objects, oldest first so newer objects occlude older ones near the
	// camera — an arbitrary but stable depth order. The render list carries
	// unclipped boxes so texture stays anchored to the physical object even
	// when it is partially outside the view.
	objs := make([]renderObject, len(v.render[i]))
	copy(objs, v.render[i])
	sort.Slice(objs, func(a, b int) bool { return objs[a].id < objs[b].id })
	for _, o := range objs {
		v.drawObjectRef(img, o, i)
	}

	// Atmospheric/exposure stressors (hostile presets) act on the formed
	// image before the sensor adds its read noise.
	v.applyStressors(img, i, new(stressBand))

	// Sensor noise: independent per frame and pixel, deterministic in the
	// (seed, frame, pixel) triple.
	if amp := float32(v.Params.SensorNoise); amp > 0 {
		noiseSeed := v.seed ^ 0x6e6f6973 ^ uint64(i)*0x9e3779b97f4a7c15
		par.Rows(h, bandFunc(func(lo, hi int) {
			for y := lo; y < hi; y++ {
				row := img.Row(y)
				for x := range row {
					row[x] += (float32(hash2Ref(noiseSeed, int64(x), int64(y))) - 0.5) * 2 * amp
				}
			}
		}))
	}
	return img
}

// drawObjectRef is drawObject as it stood before the hoisting.
func (v *Video) drawObjectRef(img *imgproc.Gray, o renderObject, frame int) {
	box := o.box
	base := ObjectLuma(v.seed, o.id, o.class)
	texSeed := v.seed ^ (uint64(o.id) * 0x9e3779b97f4a7c15)
	elliptical := isElliptical(o.class)

	cx, cy := box.Center().X, box.Center().Y
	rx, ry := box.W/2, box.H/2
	if rx <= 0 || ry <= 0 {
		return
	}
	// Deformation slide: direction stable per object, magnitude grows with
	// the frame index.
	var deformX, deformY float64
	if v.Params.Deform > 0 {
		angle := hash2(v.seed^0xdef0, int64(o.id), 777) * 2 * math.Pi
		mag := v.Params.Deform * float64(frame)
		deformX = mag * math.Cos(angle)
		deformY = mag * math.Sin(angle)
	}

	// Motion blur: average shapeColor over taps spread along the apparent
	// velocity, covering an exposure of half the frame interval (a typical
	// video shutter). The drawn extent grows by the blur length.
	blur := o.vel.Scale(exposureFraction)
	blurLen := blur.Norm()
	taps := 1
	if blurLen > 0.75 {
		taps = 1 + 2*int(math.Ceil(blurLen)) // odd, ≥3
		if taps > 9 {
			taps = 9
		}
	}

	x0 := int(math.Floor(box.Left - math.Abs(blur.X)/2 - 1))
	y0 := int(math.Floor(box.Top - math.Abs(blur.Y)/2 - 1))
	x1 := int(math.Ceil(box.Right() + math.Abs(blur.X)/2 + 1))
	y1 := int(math.Ceil(box.Bottom() + math.Abs(blur.Y)/2 + 1))

	// shapeColor returns the object's color at continuous frame coordinates,
	// or (0, false) outside the shape.
	shapeColor := func(fx, fy float64) (float64, bool) {
		nx := (fx - cx) / rx
		ny := (fy - cy) / ry
		if nx < -1 || nx > 1 || ny < -1 || ny > 1 {
			return 0, false
		}
		rim := false
		if elliptical {
			r := nx*nx + ny*ny
			if r > 1 {
				return 0, false
			}
			rim = r > 0.78
		} else if nx < -0.86 || nx > 0.86 || ny < -0.86 || ny > 0.86 {
			rim = true
		}
		if rim {
			return 0.02, true
		}
		tx := (nx+1)/2*objTexCells + deformX
		ty := (ny+1)/2*objTexCells + deformY
		n := fbmNoise(texSeed, tx, ty, 2)
		val := base + (n-0.5)*2*objTexAmp
		if val < 0.46 {
			val = 0.46 // keep objects inside the bright band
		}
		if val > 1 {
			val = 1
		}
		return val, true
	}

	// Clip the affected rectangle to the raster, then rasterize its rows in
	// parallel bands. Each row only writes its own pixels, and the
	// uncovered-tap background reads are at the written pixel itself, so
	// bands touch disjoint memory and the raster is identical at any worker
	// count.
	yLo, yHi := y0, y1
	if yLo < 0 {
		yLo = 0
	}
	if yHi >= img.H {
		yHi = img.H - 1
	}
	xLo, xHi := x0, x1
	if xLo < 0 {
		xLo = 0
	}
	if xHi >= img.W {
		xHi = img.W - 1
	}
	if yHi < yLo || xHi < xLo {
		return
	}
	par.Rows(yHi-yLo+1, bandFunc(func(lo, hi int) {
		for y := yLo + lo; y < yLo+hi; y++ {
			row := img.Row(y)
			fy := float64(y) + 0.5
			for x := xLo; x <= xHi; x++ {
				fx := float64(x) + 0.5
				if taps == 1 {
					if c, ok := shapeColor(fx, fy); ok {
						row[x] = float32(c)
					}
					continue
				}
				var sum float64
				covered := 0
				for ti := 0; ti < taps; ti++ {
					// Offsets span [-1/2, +1/2] of the blur vector.
					t := float64(ti)/float64(taps-1) - 0.5
					c, ok := shapeColor(fx-blur.X*t, fy-blur.Y*t)
					if ok {
						sum += c
						covered++
					} else {
						// The shape does not cover this tap: the sensor saw the
						// background there during part of the exposure.
						sum += float64(row[x])
					}
				}
				if covered > 0 {
					row[x] = float32(sum / float64(taps))
				}
			}
		}
	}))
}

// hash2Ref is hash2 before it was split into terms: it maps integer lattice coordinates and a seed to a pseudo-random
// value in [0, 1), stable across platforms and Go releases.
func hash2Ref(seed uint64, x, y int64) float64 {
	h := mix64(seed ^ mix64(uint64(x)+0x9e3779b97f4a7c15))
	h = mix64(h ^ mix64(uint64(y)+0x9e3779b97f4a7c15))
	return float64(h>>11) / (1 << 53)
}

// valueNoiseRef is valueNoise before its helpers were factored out: it samples single-octave value noise at continuous coordinates.
// Output is in [0, 1).
func valueNoiseRef(seed uint64, x, y float64) float64 {
	// Floor toward negative infinity so the lattice is seamless across 0.
	xi := int64(x)
	if float64(xi) > x {
		xi--
	}
	yi := int64(y)
	if float64(yi) > y {
		yi--
	}
	tx := smoothstep(x - float64(xi))
	ty := smoothstep(y - float64(yi))
	v00 := hash2Ref(seed, xi, yi)
	v10 := hash2Ref(seed, xi+1, yi)
	v01 := hash2Ref(seed, xi, yi+1)
	v11 := hash2Ref(seed, xi+1, yi+1)
	top := v00 + tx*(v10-v00)
	bot := v01 + tx*(v11-v01)
	return top + ty*(bot-top)
}

// fbmNoise layers octaves of value noise (fractional Brownian motion) for a
// natural-looking texture: octave i has double the frequency and half the
// amplitude of octave i-1. Output is normalized to [0, 1).
func fbmNoise(seed uint64, x, y float64, octaves int) float64 {
	if octaves < 1 {
		octaves = 1
	}
	var sum, norm float64
	amp := 1.0
	freq := 1.0
	for i := 0; i < octaves; i++ {
		sum += amp * valueNoiseRef(seed+uint64(i)*0x9e37, x*freq, y*freq)
		norm += amp
		amp /= 2
		freq *= 2
	}
	return sum / norm
}
