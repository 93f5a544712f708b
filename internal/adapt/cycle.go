package adapt

import (
	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/track"
)

// Cycle is one tracked cycle (§IV-B): the tracker works through the frames
// buffered during a detection and cancels its remaining tasks when the
// detector finishes. It is clock-free: the Hooks bring the engine's clock.
// sim and rt.Run track every cycle through Run.
type Cycle struct {
	Tracker track.Tracker
	// Ref and RefDets are the reference frame and boxes Init installs;
	// SkipInit steps on from RefDets without Init (MARLIN's rounds).
	Ref      core.Frame
	RefDets  []core.Detection
	SkipInit bool
	Plan     []int // the frames to track, in order
}

// Hooks are an engine's side of a Cycle, its clock: three callbacks, so
// that a Cycle runs whatever engine calls it. Task k is -1 for Init, else
// the k-th planned frame.
type Hooks struct {
	// Fetch returns planned frame i for task k; false ends the cycle.
	Fetch func(k, i int) (core.Frame, bool)
	// Stop is asked before every task with the boxes it would start from;
	// true ends the cycle. A task that has started always completes.
	Stop func(k int, from []core.Detection) bool
	// Sink receives every task that ran, in order.
	Sink func(Task)
}

// Task is one task that ran, as Hooks.Sink receives it. A step's Dets are
// sanitized; a panicked step holds From, and ends the cycle.
type Task struct {
	K, Frame   int
	From, Dets []core.Detection
	Panicked   bool
}

// Run returns the frames tracked, not counting a frame held after a panic,
// and their mean valid velocity, -1 without one (JSON can hold it, unlike
// NaN). An empty plan runs nothing, not even Init.
func (c Cycle) Run(h Hooks) (tracked int, velocity float64) {
	if len(c.Plan) == 0 {
		return 0, -1
	}
	from := c.RefDets
	if !c.SkipInit {
		if h.Stop(-1, from) {
			return 0, -1
		}
		ok := Recovered(func() { c.Tracker.Init(c.Ref, from) })
		h.Sink(Task{K: -1, Frame: c.Ref.Index, From: from, Panicked: !ok})
		if !ok {
			return 0, -1
		}
	}
	var velSum float64
	var velN int
	for k, i := range c.Plan {
		if h.Stop(k, from) {
			break
		}
		f, ok := h.Fetch(k, i)
		if !ok {
			break
		}
		var dets []core.Detection
		var v float64
		if !Recovered(func() { dets, v = c.Tracker.Step(f) }) {
			h.Sink(Task{K: k, Frame: i, From: from, Dets: from, Panicked: true})
			break
		}
		dets = detect.Sanitize(dets)
		h.Sink(Task{K: k, Frame: i, From: from, Dets: dets})
		from = dets
		tracked++
		// NaN, ±Inf and absurd velocities (faulting trackers) must never
		// reach the controller's estimate.
		if track.ValidVelocity(v) {
			velSum += v
			velN++
		}
	}
	if velN == 0 {
		return tracked, -1
	}
	return tracked, velSum / float64(velN)
}

// Recovered runs a tracker call and reports false if it panicked. Trackers
// are stateful and single-threaded, so a panic is recovered in place rather
// than abandoned to a watchdog.
func Recovered(call func()) (ok bool) {
	defer func() { ok = recover() == nil }()
	call()
	return
}
