package adapt

import (
	"math"

	"adavp/internal/core"
)

// Controller is one stream's clock-free per-cycle decisions: which buffered
// frames to track (§IV-C) and which setting the next detection runs at
// (§IV-D). Engines call Plan when a cycle's tracking starts, Observe when it
// ends and Next before the next detection. Not safe for concurrent use.
//
// Tracking plus overlay for one frame costs more than a frame interval
// (Observation 4), so the tracker plans h_t = p·f_t of the f_t buffered
// frames, with p = h_{t-1}/f_{t-1} from the previous cycle; the frames not
// selected reuse the previous result.
type Controller struct {
	model    *Model  // nil: the setting never switches
	raw      bool    // Next reads the last sample, not the Smooth estimate
	velocity float64 // Next's input; -1 before the first sample
	fraction float64 // p
}

// defaultFraction is p before the first cycle completes. With the paper's
// component latencies (tracking 7–20 ms + overlay 50 ms per frame vs a 33 ms
// frame interval at 30 FPS) roughly every second frame can be tracked.
const defaultFraction = 0.5

// NewController returns a stream's controller before its first cycle. A nil
// model never switches; raw is sim's NoVelocitySmoothing ablation.
func NewController(model *Model, raw bool) *Controller {
	return &Controller{model: model, raw: raw, velocity: -1, fraction: defaultFraction}
}

// Plan selects which of the f frames buffered this cycle, first ..
// first+f-1, to track. It returns the frame indices the tracker should
// process, spaced at regular intervals, always including the last buffered
// frame so the display catches up to the detector's fetch point. An empty
// buffer yields no selections.
func (c *Controller) Plan(first, f int) []int {
	if f <= 0 {
		return nil
	}
	h := int(c.fraction*float64(f) + 0.5) // ≤ f, since p ≤ 1
	if h < 1 {
		h = 1
	}
	// Choose h indices evenly spread over [0, f), biased toward the end:
	// i·step runs from step ≥ 1 up to f, so the last index is f-1, the
	// newest frame.
	out := make([]int, 0, h)
	step := float64(f) / float64(h)
	for i := 1; i <= h; i++ {
		idx := first + int(float64(i)*step+0.5) - 1
		if len(out) > 0 && out[len(out)-1] == idx {
			continue
		}
		out = append(out, idx)
	}
	return out
}

// Observe records a completed cycle: h of the f buffered frames were tracked
// (f <= 0 leaves p), and v is its mean motion velocity. NaN, ±Inf and v <= 0
// are no sample and leave the estimate as it is: an infinite sample would
// pin Next at the smallest model for good.
func (c *Controller) Observe(f, h int, v float64) {
	if f > 0 {
		if h < 0 {
			h = 0
		}
		if h > f {
			h = f
		}
		p := float64(h) / float64(f)
		// Clamp away from zero: a cycle in which nothing could be tracked
		// must not pin the controller at "track nothing" forever.
		if p < 0.05 {
			p = 0.05
		}
		c.fraction = p
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return
	}
	if c.raw {
		c.velocity = v
	} else {
		c.velocity = Smooth(c.velocity, v)
	}
}

// Next is the adaptation decision for the cycle about to start, which would
// otherwise run at cur: the setting the model picks for the velocity
// estimate, and the estimate itself. ok is false, and next is cur, when the
// model is nil or no cycle has produced a sample yet.
func (c *Controller) Next(cur core.Setting) (next core.Setting, velocity float64, ok bool) {
	if c.model == nil || c.velocity < 0 {
		return cur, c.velocity, false
	}
	return c.model.Next(cur, c.velocity), c.velocity, true
}
