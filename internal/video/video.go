package video

import (
	"fmt"
	"time"

	"adavp/internal/core"
	"adavp/internal/geom"
	"adavp/internal/rng"
)

// Video is a fully generated synthetic video: per-frame ground truth plus a
// deterministic renderer. Ground truth is materialized at construction; the
// pixel raster of any frame can be produced on demand (rendering is pure).
type Video struct {
	// Name identifies the video in reports ("racetrack-03", ...).
	Name string
	// Params are the scenario dynamics the video was generated from.
	Params Params

	seed   uint64
	truth  [][]core.Object
	render [][]renderObject // unclipped boxes + velocities for rasterization
	camX   []float64
	camY   []float64

	// srcFrame maps a delivered frame index to the scene frame it shows.
	// Non-nil only under Params.FrameDropRate: a dropped frame repeats the
	// previous delivered one, so its raster and truth must both come from
	// the same source index. Nil means the identity mapping.
	srcFrame []int

	// parts/partStart are set on spliced videos (Splice): frame i renders
	// through the part that owns it, since rendering is seeded per part.
	parts     []*Video
	partStart []int

	// bg is non-nil when every frame has the same camera offset: the first
	// pixel render builds the background raster all frames share.
	bg *staticBackground
}

// Generate builds a video of the given length from a scenario preset and a
// seed. The same (params, seed, frames) triple always yields the same video.
func Generate(name string, p Params, seed uint64, frames int) *Video {
	if frames < 0 {
		frames = 0
	}
	if p.W <= 0 || p.H <= 0 || p.FPS <= 0 {
		panic(fmt.Sprintf("video: invalid params %dx%d@%d", p.W, p.H, p.FPS))
	}
	root := rng.New(seed)
	sc := newScene(p, root)
	v := &Video{
		Name:   name,
		Params: p,
		seed:   seed,
		truth:  make([][]core.Object, frames),
		render: make([][]renderObject, frames),
		camX:   make([]float64, frames),
		camY:   make([]float64, frames),
	}
	for i := 0; i < frames; i++ {
		v.truth[i], v.render[i] = sc.step()
		v.camX[i], v.camY[i] = sc.cameraOffset(sc.frame)
		if p.DeadSensor {
			// Sensor failure: the scene still exists, but the camera sees
			// (and the dataset records) nothing.
			v.truth[i] = nil
		}
	}
	// A static camera sees one background in every frame; its raster is
	// built by the first pixel render, so model-mode runs never pay for it.
	static := frames > 0
	for i := range v.camX {
		static = static && v.camX[i] == v.camX[0] && v.camY[i] == v.camY[0]
	}
	if static {
		v.bg = new(staticBackground)
	}
	// Variable/dropped frame rate: a dropped frame repeats the previous
	// delivered frame — truth and raster together, so the video stays
	// self-consistent. The drop schedule draws from its own derived stream,
	// leaving the scene stream untouched.
	if p.FrameDropRate > 0 && frames > 1 {
		drop := root.DeriveString("frame-drop")
		v.srcFrame = make([]int, frames)
		v.srcFrame[0] = 0
		for i := 1; i < frames; i++ {
			if drop.Bool(p.FrameDropRate) {
				v.srcFrame[i] = v.srcFrame[i-1]
				v.truth[i] = v.truth[v.srcFrame[i]]
			} else {
				v.srcFrame[i] = i
			}
		}
	}
	return v
}

// Splice concatenates parts into one video — the mid-stream scenario switch
// the chaos soak drives streams through. Parts must share resolution and
// frame rate; each boundary is a natural hard cut (new world, new camera).
// Ground truth and camera tracks are copied so Truth/ChangeRate work
// unchanged; rendering delegates to the owning part, whose seed anchors its
// textures.
func Splice(name string, parts ...*Video) *Video {
	if len(parts) == 0 {
		panic("video: Splice needs at least one part")
	}
	p0 := parts[0].Params
	total := 0
	for _, part := range parts {
		if part.Params.W != p0.W || part.Params.H != p0.H || part.Params.FPS != p0.FPS {
			panic(fmt.Sprintf("video: Splice part %q geometry %dx%d@%d differs from %dx%d@%d",
				part.Name, part.Params.W, part.Params.H, part.Params.FPS, p0.W, p0.H, p0.FPS))
		}
		total += part.NumFrames()
	}
	v := &Video{
		Name:      name,
		Params:    p0,
		seed:      parts[0].seed,
		truth:     make([][]core.Object, 0, total),
		camX:      make([]float64, 0, total),
		camY:      make([]float64, 0, total),
		parts:     parts,
		partStart: make([]int, len(parts)),
	}
	for pi, part := range parts {
		v.partStart[pi] = len(v.truth)
		v.truth = append(v.truth, part.truth...)
		v.camX = append(v.camX, part.camX...)
		v.camY = append(v.camY, part.camY...)
	}
	return v
}

// PartIndex returns which spliced part owns frame i and the frame's index
// within that part. Unspliced videos own all their frames (part 0).
func (v *Video) PartIndex(i int) (part, frame int) {
	if len(v.parts) == 0 {
		return 0, i
	}
	part = 0
	for pi, start := range v.partStart {
		if i >= start {
			part = pi
		}
	}
	return part, i - v.partStart[part]
}

// GenerateKind builds a video from a scenario kind's default preset.
func GenerateKind(name string, k Kind, seed uint64, frames int) *Video {
	return Generate(name, ScenarioParams(k), seed, frames)
}

// NumFrames returns the number of frames in the video.
func (v *Video) NumFrames() int { return len(v.truth) }

// FPS returns the capture rate.
func (v *Video) FPS() int { return v.Params.FPS }

// FrameInterval returns the camera frame interval (1/FPS).
func (v *Video) FrameInterval() time.Duration {
	return time.Duration(float64(time.Second) / float64(v.Params.FPS))
}

// Bounds returns the frame rectangle in pixel coordinates.
func (v *Video) Bounds() geom.Rect {
	return geom.Rect{W: float64(v.Params.W), H: float64(v.Params.H)}
}

// Truth returns the ground-truth objects of frame i. The returned slice is
// shared; callers must not modify it.
func (v *Video) Truth(i int) []core.Object {
	if i < 0 || i >= len(v.truth) {
		return nil
	}
	return v.truth[i]
}

// Frame assembles the core.Frame for index i without pixels. Use Render (or
// FrameWithPixels) when the pixel tracker or blob detector needs the raster.
func (v *Video) Frame(i int) core.Frame {
	return core.Frame{
		Index: i,
		PTS:   time.Duration(i) * v.FrameInterval(),
		Truth: v.Truth(i),
	}
}

// FrameWithPixels assembles the core.Frame for index i including the
// rendered raster.
func (v *Video) FrameWithPixels(i int) core.Frame {
	f := v.Frame(i)
	f.Pixels = v.Render(i)
	return f
}

// ChangeRate returns the ground-truth content changing rate at frame i: the
// mean displacement (pixels/frame) of object centers between frames i-1 and
// i, over objects visible in both, including apparent motion induced by
// camera pan/scroll. It is the oracle counterpart of the tracker-derived
// motion velocity metric of §IV-D.2 and is used for calibration and tests.
func (v *Video) ChangeRate(i int) float64 {
	if i <= 0 || i >= len(v.truth) {
		return 0
	}
	prev := make(map[int]geom.Point, len(v.truth[i-1]))
	for _, o := range v.truth[i-1] {
		prev[o.ID] = o.Box.Center()
	}
	var sum float64
	var n int
	for _, o := range v.truth[i] {
		if c, ok := prev[o.ID]; ok {
			sum += o.Box.Center().Dist(c)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanChangeRate averages ChangeRate over the whole video.
func (v *Video) MeanChangeRate() float64 {
	if len(v.truth) < 2 {
		return 0
	}
	var sum float64
	for i := 1; i < len(v.truth); i++ {
		sum += v.ChangeRate(i)
	}
	return sum / float64(len(v.truth)-1)
}
