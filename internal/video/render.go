package video

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sync"

	"adavp/internal/core"
	"adavp/internal/imgproc"
	"adavp/internal/par"
)

// Rendering constants. The raster is designed so that
//   - the background stays in a dark band and objects in a bright band,
//     giving the pixel-level blob detector a physically meaningful signal;
//   - every surface carries fractal texture rigidly attached to its owner,
//     giving the Lucas–Kanade tracker gradients that move with the object.
const (
	bgLow, bgHigh   = 0.08, 0.40 // background intensity band
	objLow, objHigh = 0.60, 0.95 // object base intensity band
	objTexAmp       = 0.06       // object texture contrast
	bgScale         = 24.0       // background noise feature size (px)
	objTexCells     = 6.0        // texture cells across an object
	lumaJitter      = 0.008      // per-object deviation from its class band
)

// ClassLuma returns the center of the intensity band that objects of class c
// are rendered into. Each class owns a distinct band inside [objLow,
// objHigh]: surface brightness is the appearance cue that lets a pixel-level
// detector tell apart classes with identical geometry, the way a DNN uses
// appearance. Bands are ~0.025 apart, well above the per-object jitter but
// close enough that background blending at small input sizes causes
// neighbor-class confusion — reproducing the paper's observation that small
// YOLOv3 inputs mislabel objects (Fig. 5).
func ClassLuma(c core.Class) float64 {
	idx := float64(c)
	if !c.Valid() {
		idx = 1
	}
	return objLow + (idx-0.5)/float64(core.NumClasses)*(objHigh-objLow)
}

// ObjectLuma returns the deterministic base intensity of an object's
// rendered surface: its class band center plus a small per-object offset
// derived from the video seed and object ID.
func ObjectLuma(videoSeed uint64, objectID int, c core.Class) float64 {
	h := hash2(videoSeed^0xa5a5a5a5, int64(objectID), 12345)
	return ClassLuma(c) + (h*2-1)*lumaJitter
}

// Render rasterizes frame i into a fresh raster. Rendering is pure: the same
// video and index always produce the same raster.
func (v *Video) Render(i int) *imgproc.Gray {
	img := imgproc.NewGray(v.Params.W, v.Params.H)
	v.RenderInto(i, img)
	return img
}

var errRasterSize = errors.New("video: RenderInto needs a raster of the video's resolution")

// RenderInto rasterizes frame i into dst, which must have the video's
// resolution and is fully overwritten: an out-of-range index or a dead sensor
// leaves it all zero. It allocates nothing in steady state, so a caller that
// owns its rasters (a pipeline ring slot, a frame source) pays for the pixels
// only.
//
// Everything that does not depend on the pixel is computed before the pixel
// loops and read from renderScratch inside them; every floating-point
// operation that survives is the one the per-pixel form (renderRef, in the
// tests) performs, in the same order, so the rasters are bit-identical to it.
//
//adavp:hotpath
func (v *Video) RenderInto(i int, dst *imgproc.Gray) {
	w, h := v.Params.W, v.Params.H
	if dst.W != w || dst.H != h {
		panic(errRasterSize)
	}
	if i < 0 || i >= len(v.truth) {
		clear(dst.Pix)
		return
	}
	if len(v.parts) > 0 {
		// Spliced video: the owning part's seed anchors its textures.
		pi, local := v.PartIndex(i)
		v.parts[pi].RenderInto(local, dst)
		return
	}
	if v.Params.DeadSensor {
		// Sensor failure: all-black frames.
		clear(dst.Pix)
		return
	}
	if v.srcFrame != nil {
		// A dropped frame repeats its source frame exactly: every seed below
		// keys on the source index, so the rasters are identical.
		i = v.srcFrame[i]
	}
	rs := renderPool.Get().(*renderScratch)
	defer renderPool.Put(rs)

	// Background: fractal noise in world coordinates so camera pan and ego
	// scroll translate it exactly like real scenery. Rows are independent,
	// so the raster fills in parallel bands; every pixel runs the same
	// scalar expression, keeping rendering pure at any worker count.
	bg := &rs.bg
	bg[0].fill(v.seed^0x5bd1e995, 1, w, h, v.camX[i], v.camY[i])
	bg[1].fill(v.seed^0x5bd1e995+octaveSeedStep, 2, w, h, v.camX[i], v.camY[i])
	par.Rows(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			row := dst.Row(y)
			top0, bot0, ty0 := bg[0].row(y, w)
			top1, bot1, ty1 := bg[1].row(y, w)
			for x := range row {
				n0 := top0[x] + ty0*(bot0[x]-top0[x])
				n1 := top1[x] + ty1*(bot1[x]-top1[x])
				row[x] = float32(bgLow + fbm2(n0, n1)*(bgHigh-bgLow))
			}
		}
	})

	// Objects, oldest first so newer objects occlude older ones near the
	// camera — an arbitrary but stable depth order (IDs are unique within a
	// frame). The render list carries unclipped boxes so texture stays
	// anchored to the physical object even when it is partially outside the
	// view.
	rs.objs = append(rs.objs[:0], v.render[i]...)
	slices.SortFunc(rs.objs, func(a, b renderObject) int { return cmp.Compare(a.id, b.id) })
	for _, o := range rs.objs {
		v.drawObject(dst, o, i, &rs.tex)
	}

	// Atmospheric/exposure stressors (hostile presets) act on the formed
	// image before the sensor adds its read noise.
	v.applyStressors(dst, i)

	// Sensor noise: independent per frame and pixel, deterministic in the
	// (seed, frame, pixel) triple. hash2's column term is mixed once per
	// frame and its row term once per row.
	if amp := float32(v.Params.SensorNoise); amp > 0 {
		noiseSeed := v.seed ^ 0x6e6f6973 ^ uint64(i)*0x9e3779b97f4a7c15
		rs.noiseCol = grown(rs.noiseCol, w)
		cols := rs.noiseCol
		for x := range cols {
			cols[x] = hashX(noiseSeed, int64(x))
		}
		par.Rows(h, func(lo, hi int) {
			for y := lo; y < hi; y++ {
				row := dst.Row(y)[:len(cols)]
				hy := hashY(int64(y))
				for x, hx := range cols {
					row[x] += (float32(hashUnit(hx, hy)) - 0.5) * 2 * amp
				}
			}
		})
	}
}

// renderScratch holds what one RenderInto call computes once and its pixel
// loops only read. It is pooled rather than kept on the Video because renders
// of one video overlap (the live pipeline's prefetcher and tracker), and
// rather than stack-allocated because the par.Rows closures would move it to
// the heap on every call.
type renderScratch struct {
	bg       [2]bgOctave
	tex      [2]texWindow
	objs     []renderObject
	noiseCol []uint64
}

var renderPool = sync.Pool{New: func() any { return new(renderScratch) }}

// grown returns s with length n and undefined contents, reallocating only
// when its capacity is short. Not inlined, so that escape analysis reports
// the allocation here once instead of in every hot function that calls it.
//
//go:noinline
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bgOctave is one octave of the background's value noise over a whole frame,
// with everything that depends on the column alone already applied: for each
// lattice row the frame touches, the row's hashed corners interpolated
// horizontally at every pixel column (cell index and smoothstep weight depend
// on x and the camera offset only). A pixel is then one vertical
// interpolation between two of these rows. Hashing the corners per pixel —
// each is shared by bgScale² of them — was almost all of the renderer's time.
type bgOctave struct {
	freq, camY float64
	y0         int64     // lattice row of lerp's first row
	lerp       []float64 // lattice rows interpolated at every pixel column, row-major
	col        []int32   // fill's scratch: lattice column of pixel column x, from the first
	tx         []float64 // fill's scratch: smoothstep weight of pixel column x
	lat        []float64 // fill's scratch: one row of hashed lattice corners
}

// fill builds the table for a w×h frame at the given camera offset.
//
//adavp:hotpath
func (o *bgOctave) fill(seed uint64, freq float64, w, h int, camX, camY float64) {
	o.freq, o.camY = freq, camY
	o.col, o.tx = grown(o.col, w), grown(o.tx, w)
	col, tx := o.col, o.tx
	// The coordinate is monotonic in x and in y, so column 0 and row 0 have
	// the lowest cells and the last ones the highest.
	x0 := floor64(camX / bgScale * freq)
	for x := range col {
		wx := (float64(x) + camX) / bgScale * freq
		xi := floor64(wx)
		col[x] = int32(xi - x0)
		tx[x] = smoothstep(wx - float64(xi))
	}
	o.lat = grown(o.lat, int(col[w-1])+2)
	o.y0 = floor64(camY / bgScale * freq)
	rows := int(floor64((float64(h-1)+camY)/bgScale*freq)-o.y0) + 2
	o.lerp = grown(o.lerp, rows*w)
	for r := 0; r < rows; r++ {
		hy := hashY(o.y0 + int64(r))
		for c := range o.lat {
			o.lat[c] = hashUnit(hashX(seed, x0+int64(c)), hy)
		}
		out := o.lerp[r*w : (r+1)*w]
		for x, c := range col {
			out[x] = o.lat[c] + tx[x]*(o.lat[c+1]-o.lat[c])
		}
	}
}

// row returns, for pixel row y of a w-wide frame, the two interpolated
// lattice rows it lies between and its vertical smoothstep weight.
//
//adavp:hotpath
func (o *bgOctave) row(y, w int) (top, bot []float64, ty float64) {
	wy := (float64(y) + o.camY) / bgScale * o.freq
	yi := floor64(wy)
	r := int(yi-o.y0) * w
	return o.lerp[r : r+w], o.lerp[r+w : r+2*w], smoothstep(wy - float64(yi))
}

// texWindow is the part of one texture octave's lattice an object can touch
// in one frame. Texture coordinates span [deform, objTexCells+deform] per
// axis, so the window is anchored at floor(deform·freq) and a few cells wide;
// every pixel and every blur tap of the object indexes it.
type texWindow struct {
	seed   uint64
	ox, oy int64 // lattice coordinates of v[0]
	side   int64
	v      [texWindowMax * texWindowMax]float64
}

// texWindowMax is the widest window: the second octave's coordinates span
// 2·objTexCells cells, whose corners lie on 2·objTexCells+2 lattice lines, plus
// one for a span that straddles a line at both ends.
const texWindowMax = 2*objTexCells + 3

// fill hashes the window of the octave with the given frequency for an
// object whose texture slid by (deformX, deformY) cells.
//
//adavp:hotpath
func (t *texWindow) fill(seed uint64, freq, deformX, deformY float64) {
	t.seed = seed
	t.ox, t.oy = floor64(deformX*freq), floor64(deformY*freq)
	t.side = int64(objTexCells*freq) + 3
	for j := int64(0); j < t.side; j++ {
		for i := int64(0); i < t.side; i++ {
			t.v[j*t.side+i] = hash2(seed, t.ox+i, t.oy+j)
		}
	}
}

// sample is valueNoise(t.seed, x, y) read from the window; coordinates whose
// cell is not in it (a deformation so large that adding it rounds the texture
// coordinate out of its span) take valueNoise itself.
//
//adavp:hotpath
func (t *texWindow) sample(x, y float64) float64 {
	xi, yi := floor64(x), floor64(y)
	i, j := xi-t.ox, yi-t.oy
	if uint64(i) >= uint64(t.side-1) || uint64(j) >= uint64(t.side-1) {
		return valueNoise(t.seed, x, y)
	}
	k := j*t.side + i
	return lerp2(t.v[k], t.v[k+1], t.v[k+t.side], t.v[k+t.side+1],
		smoothstep(x-float64(xi)), smoothstep(y-float64(yi)))
}

// fogGray is the uniform luminance fog pulls every pixel toward: between
// the background and object bands, so fog crushes the contrast of both.
const fogGray = 0.5

// applyStressors applies the hostile compositional stressors to a formed
// frame: fog contrast loss, rain-streak overlay, then the day/night gain
// ramp with exposure flicker. Every term is a pure scalar function of
// (seed, frame, pixel), evaluated per pixel inside independent row bands, so
// stressed rendering remains byte-identical at any worker count.
//
//adavp:hotpath
func (v *Video) applyStressors(img *imgproc.Gray, frame int) {
	p := v.Params
	fog := p.FogDensity
	rain := p.RainDensity
	gain := 1.0
	if p.LumaRampDepth > 0 && p.LumaRampPeriodSec > 0 {
		t := float64(frame) / float64(p.FPS)
		gain *= 1 - p.LumaRampDepth*0.5*(1-math.Cos(2*math.Pi*t/p.LumaRampPeriodSec))
	}
	if p.FlickerAmp > 0 {
		gain *= 1 + p.FlickerAmp*(2*hash2(v.seed^0xf11c4e6, int64(frame), 0)-1)
	}
	if fog <= 0 && rain <= 0 && gain == 1 {
		return
	}
	rainSeed := v.seed ^ 0x4a11a5
	par.Rows(img.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			row := img.Row(y)
			for x := range row {
				val := float64(row[x])
				if fog > 0 {
					val += (fogGray - val) * fog
				}
				if rain > 0 {
					if lit, bright := rainCell(rainSeed, x, y, frame, rain); lit {
						val += (bright - val) * 0.55
					}
				}
				row[x] = float32(val * gain)
			}
		}
	})
}

// drawObject rasterizes one object: a filled, textured shape with a dark rim
// (the rim contributes strong corners for feature extraction). Persons and
// animals render as ellipses, everything else as rectangles.
//
// Two physical degradation effects are modelled because they are what makes
// optical-flow tracking decay on real video:
//
//   - Deformation: the surface texture slides slowly across the object
//     (Params.Deform cells per frame, stable per-object direction), like the
//     appearance change of rotating and articulating objects. Features lock
//     onto texture, so they drift off the object at this rate.
//
//   - Motion blur: the drawn shape is averaged over the exposure interval
//     along the object's apparent velocity. Fast objects smear; their
//     silhouette corners and texture gradients wash out, so features become
//     untrackable — the reason fast videos are the hard case (Fig. 2).
//
//adavp:hotpath
func (v *Video) drawObject(img *imgproc.Gray, o renderObject, frame int, tex *[2]texWindow) {
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
		n := fbm2(tex[0].sample(tx, ty), tex[1].sample(tx*2, ty*2))
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
	// The texture lattice this object can touch this frame, hashed once for
	// all of its pixels and blur taps.
	tex[0].fill(texSeed, 1, deformX, deformY)
	tex[1].fill(texSeed+octaveSeedStep, 2, deformX, deformY)
	par.Rows(yHi-yLo+1, func(lo, hi int) {
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
	})
}

// exposureFraction is the fraction of the frame interval the virtual shutter
// stays open (a 180° shutter, the cinematic standard).
const exposureFraction = 0.5

// isElliptical reports whether a class renders as an ellipse.
func isElliptical(c core.Class) bool {
	switch c {
	case core.ClassPerson, core.ClassSkater, core.ClassDog, core.ClassHorse,
		core.ClassSheep, core.ClassBird:
		return true
	default:
		return false
	}
}
