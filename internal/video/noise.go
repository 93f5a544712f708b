package video

import "math"

// Value noise: a deterministic, random-access 2-D texture function. The
// renderer uses it for background and object surfaces so that frames carry
// trackable gradient structure that moves rigidly with its owner — the
// property the Lucas–Kanade tracker depends on.

// mix64 is the SplitMix64 finalizer (same scrambler as internal/rng), inlined
// here because hash2 runs once per pixel lattice corner and must not allocate.
//
//adavp:hotpath
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hash2 maps integer lattice coordinates and a seed to a pseudo-random
// value in [0, 1), stable across platforms and Go releases. It is composed
// of hashX, hashY and hashUnit so a loop over one coordinate can mix the
// other once.
//
//adavp:hotpath
func hash2(seed uint64, x, y int64) float64 {
	return hashUnit(hashX(seed, x), hashY(y))
}

// hashX is hash2's seed-and-column term.
//
//adavp:hotpath
func hashX(seed uint64, x int64) uint64 {
	return mix64(seed ^ mix64(uint64(x)+0x9e3779b97f4a7c15))
}

// hashY is hash2's row term.
//
//adavp:hotpath
func hashY(y int64) uint64 { return mix64(uint64(y) + 0x9e3779b97f4a7c15) }

// hashUnit combines the two terms into hash2's value.
//
//adavp:hotpath
func hashUnit(hx, hy uint64) float64 {
	return float64(mix64(hx^hy)>>11) / (1 << 53)
}

// smoothstep is the C1-continuous fade used to interpolate lattice values.
func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// floor64 floors toward negative infinity so the lattice is seamless across 0.
func floor64(x float64) int64 {
	xi := int64(x)
	if float64(xi) > x {
		xi--
	}
	return xi
}

// lerp2 interpolates the four corners of a lattice cell with the (already
// smoothstepped) weights tx, ty.
func lerp2(v00, v10, v01, v11, tx, ty float64) float64 {
	top := v00 + tx*(v10-v00)
	bot := v01 + tx*(v11-v01)
	return top + ty*(bot-top)
}

// valueNoise samples single-octave value noise at continuous coordinates.
// Output is in [0, 1).
//
//adavp:hotpath
func valueNoise(seed uint64, x, y float64) float64 {
	xi, yi := floor64(x), floor64(y)
	return lerp2(hash2(seed, xi, yi), hash2(seed, xi+1, yi), hash2(seed, xi, yi+1), hash2(seed, xi+1, yi+1),
		smoothstep(x-float64(xi)), smoothstep(y-float64(yi)))
}

// octaveSeedStep separates the seeds of successive noise octaves.
const octaveSeedStep = 0x9e37

// fbm2 layers two octaves of value noise (fractional Brownian motion) for a
// natural-looking texture: n1, sampled at double the frequency of n0, carries
// half its amplitude. Output is normalized to [0, 1).
func fbm2(n0, n1 float64) float64 { return (n0 + 0.5*n1) / 1.5 }

// Rain-streak geometry: streaks are lit cells of a slanted lattice that
// falls across the frame. Tuned for the 320×180 default raster: 2-px wide
// columns, 22-px long segments, falling 14 px/frame with a slight rightward
// slant.
const (
	rainSlant   = 0.18 // horizontal drift per vertical pixel
	rainColW    = 2.0  // streak width, px
	rainSegLen  = 22.0 // streak length, px
	rainFallPx  = 14.0 // fall speed, px/frame
	rainBlendLo = 0.70 // darkest streak luminance
	rainBlendHi = 0.95 // brightest streak luminance
)

// rainCell reports whether the rain overlay lights pixel (x, y) at the given
// frame, and with what luminance. Pure in (seed, frame, pixel): the same
// arguments always produce the same cell, so rain-streaked rendering keeps
// the renderer's worker-count parity.
//
//adavp:hotpath
func rainCell(seed uint64, x, y, frame int, density float64) (lit bool, luma float64) {
	u := float64(x) + float64(y)*rainSlant
	col := int64(math.Floor(u / rainColW))
	// Per-column phase keeps adjacent streaks out of vertical lockstep.
	phase := hash2(seed^0x9a17, col, 0) * rainSegLen
	fall := float64(y) + float64(frame)*rainFallPx + phase
	seg := int64(math.Floor(fall / rainSegLen))
	h := hash2(seed, col, seg)
	if h >= density {
		return false, 0
	}
	// Reuse the sub-threshold hash bits for the streak's brightness.
	frac := h / density
	return true, rainBlendLo + frac*(rainBlendHi-rainBlendLo)
}
