// Package trace defines the execution record a pipeline run produces: the
// per-frame outputs, the detection/tracking cycles, model-setting switches,
// and the hardware busy intervals that the energy model integrates over.
// It also implements the paper's "data storage" facility (§V): exporting the
// per-frame results as CSV or JSON for offline analysis.
package trace

import (
	"fmt"
	"time"

	"adavp/internal/core"
)

// Resource identifies a hardware unit of the TX2 in busy intervals.
type Resource int

// Resources.
const (
	ResourceInvalid Resource = iota
	// ResourceGPU runs DNN inference.
	ResourceGPU
	// ResourceCPUTrack runs feature extraction and optical flow.
	ResourceCPUTrack
	// ResourceCPUOverlay draws boxes and displays frames.
	ResourceCPUOverlay
)

// String implements fmt.Stringer.
func (r Resource) String() string {
	switch r {
	case ResourceGPU:
		return "gpu"
	case ResourceCPUTrack:
		return "cpu-track"
	case ResourceCPUOverlay:
		return "cpu-overlay"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// Interval is a half-open busy span [Start, End) of one resource.
type Interval struct {
	Resource Resource
	// Setting is the model setting for GPU intervals; zero otherwise.
	Setting core.Setting
	Start   time.Duration
	End     time.Duration
}

// Dur returns the interval length (zero for inverted intervals).
func (iv Interval) Dur() time.Duration {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// Cycle summarizes one detection/tracking cycle.
type Cycle struct {
	// Index is the zero-based cycle number.
	Index int
	// Setting is the DNN setting the cycle's detection ran at.
	Setting core.Setting
	// DetectedFrame is the frame the detector processed.
	DetectedFrame int
	// Start and End bound the detection execution.
	Start, End time.Duration
	// FramesBuffered is f_t, the frames accumulated for the tracker.
	FramesBuffered int
	// FramesTracked is h_t, the frames the tracker actually processed.
	FramesTracked int
	// Velocity is the mean motion velocity the tracker measured (Eq. 3).
	Velocity float64
}

// Switch records a model-setting change between consecutive cycles.
type Switch struct {
	// CycleIndex is the cycle that first ran with the new setting.
	CycleIndex int
	From, To   core.Setting
	At         time.Duration
	// Took is the model-switch overhead the pipeline paid (§IV-D's switch
	// cost); zero when not measured.
	Took time.Duration
}

// FaultEvent records one injected fault or one supervision action during a
// run — the raw material of a fault campaign's post-mortem.
type FaultEvent struct {
	// Component is "detector" or "tracker".
	Component string
	// Kind names the fault class ("hang", "panic", "empty", ...) or, for
	// supervision actions, the relevant detail (e.g. the setting change of
	// a downgrade).
	Kind string
	// Action says what happened: "injected" for scheduled faults,
	// "timeout" / "panic" / "empty-burst" for observed faults, and
	// "retry" / "downgrade" / "recovered" for supervisor reactions.
	Action string
	// Cycle and Frame locate the event in the run (best effort; injected
	// faults in the simulator are located by call index).
	Cycle int
	Frame int
	// At is the pipeline time of the event (zero when unknown).
	At time.Duration
}

// Run is the complete record of one pipeline execution over one video.
type Run struct {
	Video  string
	Policy string
	// Outputs holds exactly one entry per camera frame, in frame order.
	Outputs []core.FrameOutput
	// FrameF1 is filled by the evaluator (same length as Outputs).
	FrameF1  []float64
	Cycles   []Cycle
	Switches []Switch
	Busy     []Interval
	// Faults records injected faults and supervision actions, in order.
	Faults []FaultEvent
	// Duration is the simulated wall-clock length of the run.
	Duration time.Duration
}

// CyclesPerSwitch returns, for each switch, the number of cycles the
// previous setting persisted — the quantity whose CDF is the paper's Fig. 7.
func (r *Run) CyclesPerSwitch() []float64 {
	if len(r.Switches) == 0 {
		return nil
	}
	out := make([]float64, 0, len(r.Switches))
	prev := 0
	for _, sw := range r.Switches {
		out = append(out, float64(sw.CycleIndex-prev))
		prev = sw.CycleIndex
	}
	return out
}

// SettingUsage returns the fraction of cycles run at each setting (Fig. 8).
func (r *Run) SettingUsage() map[core.Setting]float64 {
	if len(r.Cycles) == 0 {
		return nil
	}
	counts := make(map[core.Setting]int)
	for _, c := range r.Cycles {
		counts[c.Setting]++
	}
	out := make(map[core.Setting]float64, len(counts))
	for s, n := range counts {
		out[s] = float64(n) / float64(len(r.Cycles))
	}
	return out
}
