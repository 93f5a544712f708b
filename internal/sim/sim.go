// Package sim executes AdaVP and its baselines over synthetic videos on a
// deterministic virtual clock modelling the Jetson TX2: a GPU that runs one
// DNN inference at a time, a CPU that runs feature extraction, optical-flow
// tracking and overlay drawing, and a camera producing frames at a fixed
// rate. The schedule — which frame is processed by what, when — is exactly
// the paper's §IV-B semantics; all component durations come from the
// calibrated latency model (Table II / Fig. 1).
//
// Five policies are implemented:
//
//   - PolicyAdaVP: MPDT plus runtime model-setting adaptation (the paper's
//     full system).
//   - PolicyMPDT: parallel detection and tracking at a fixed setting.
//   - PolicyMARLIN: the sequential baseline — detector and tracker never
//     run concurrently; detection is re-triggered by a scene-change
//     threshold on the tracker's motion velocity.
//   - PolicyNoTracking: detector only; skipped frames reuse the previous
//     detection (the paper's "without tracking" baseline).
//   - PolicyContinuous: detect every frame with no skipping; runtime
//     stretches far beyond real time (the 7×/10.3× rows of Table III).
//
// One Run is single-threaded. RunSet and CollectTrainingSamples run a video
// set's independent per-video runs concurrently, on GOMAXPROCS goroutines
// that each claim the next video, and assemble the results in video order:
// their output does not depend on GOMAXPROCS.
package sim

import (
	"fmt"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/fault"
	"adavp/internal/metrics"
	"adavp/internal/obs"
	"adavp/internal/par"
	"adavp/internal/rng"
	"adavp/internal/trace"
	"adavp/internal/track"
	"adavp/internal/video"
)

// Policy selects the pipeline schedule.
type Policy int

// Policies.
const (
	PolicyInvalid Policy = iota
	PolicyAdaVP
	PolicyMPDT
	PolicyMARLIN
	PolicyNoTracking
	PolicyContinuous
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyAdaVP:
		return "AdaVP"
	case PolicyMPDT:
		return "MPDT"
	case PolicyMARLIN:
		return "MARLIN"
	case PolicyNoTracking:
		return "NoTracking"
	case PolicyContinuous:
		return "Continuous"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes a run. Zero-value fields take documented defaults.
type Config struct {
	// Policy selects the schedule; required.
	Policy Policy
	// Setting is the fixed model setting for non-adaptive policies and the
	// initial setting for AdaVP. Default: Setting512.
	Setting core.Setting
	// Adaptation overrides the pretrained model (AdaVP only).
	Adaptation *adapt.Model
	// Detector overrides the default detector: the BlobDetector in pixel
	// mode, the calibrated SimDetector otherwise.
	Detector detect.Detector
	// NewTracker overrides the default tracker factory: the PixelTracker in
	// pixel mode, the ModelTracker otherwise.
	NewTracker func(seed uint64) track.Tracker
	// PixelMode renders every processed frame and runs the pixel detector and
	// tracker unless Detector or NewTracker override them. Slow; meant for
	// small studies.
	PixelMode bool
	// Fault, when set, wraps the detector and tracker with the profile's
	// deterministic fault schedule (internal/fault). The virtual clock runs
	// in fault.Virtual mode: latency, hang and panic faults manifest as
	// lost (empty) results, since a hung or crashed component produces
	// nothing the discrete-event scheduler could wait on. The same Profile
	// handed to internal/rt injects the identical schedule live.
	Fault *fault.Profile
	// Obs, when set, receives the run's telemetry under the internal/obs
	// schema, with virtual-clock timestamps: per-stage latency histograms
	// published through the busy-interval choke point, setting switches,
	// frame/cycle counters and the fault journal. Because every published
	// value derives from the virtual clock, two identical runs produce
	// byte-identical snapshots.
	Obs *obs.Registry
	// Seed derives all run randomness (latency jitter, detector noise).
	Seed uint64
	// Alpha is the per-frame F1 threshold for the accuracy metric (0.7).
	Alpha float64
	// IoU is the matching threshold (0.5).
	IoU float64

	// Ablation switches (see DESIGN.md §4).

	// TrackAllFrames disables the tracking-frame selection of §IV-C: the
	// tracker attempts every buffered frame in order until the cycle budget
	// runs out, instead of spreading a feasible subset across the buffer.
	TrackAllFrames bool
	// NoVelocitySmoothing feeds raw per-cycle velocities to the adaptation
	// module instead of the light EWMA.
	NoVelocitySmoothing bool

	// streamLabel, when non-empty, labels every series this run publishes
	// into Obs with stream=<label>, so N streams sharing one registry stay
	// distinguishable. Set by RunMulti; it does not affect the trace, the
	// schedule or the results.
	streamLabel string
}

// MARLINTrigger is the scene-change velocity threshold (px/frame) that
// re-triggers detection in PolicyMARLIN, tuned for best MARLIN accuracy over
// the standard test set (the paper likewise tunes its baseline's threshold
// for best accuracy).
const MARLINTrigger = 0.1

func (c Config) withDefaults() Config {
	if c.Setting == core.SettingInvalid {
		c.Setting = core.Setting512
	}
	if c.Alpha <= 0 {
		c.Alpha = metrics.DefaultAlpha
	}
	if c.IoU <= 0 {
		c.IoU = metrics.DefaultIoU
	}
	return c
}

// Result is a completed run plus its evaluation.
type Result struct {
	Run *trace.Run
	// Accuracy is the fraction of frames with F1 >= Alpha (the paper's
	// per-video accuracy metric).
	Accuracy float64
	// MeanF1 is the mean per-frame F1.
	MeanF1 float64
}

// Run executes one policy over one video. A panicking detector (possible
// with a user-supplied one outside the fault framework) is recovered into an
// error rather than killing the caller. A panicking tracker is recovered in
// place, as in rt.Run (adapt.Cycle): the frame it panicked on is held and
// the cycle ends; after a panic in MARLIN's per-detection Init the next frame
// is detected. In pixel mode the run holds par's worker gangs (par.Hold)
// from start to return.
func Run(v *video.Video, cfg Config) (res *Result, err error) {
	cfg = cfg.withDefaults()
	if v == nil || v.NumFrames() == 0 {
		return nil, fmt.Errorf("sim: empty video")
	}
	if cfg.PixelMode {
		defer par.Hold()()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("sim: pipeline component panicked: %v", r)
		}
	}()
	e := newEngine(v, cfg)
	switch cfg.Policy {
	case PolicyAdaVP, PolicyMPDT:
		e.runParallel()
	case PolicyMARLIN:
		e.runMARLIN()
	case PolicyNoTracking:
		e.runNoTracking()
	case PolicyContinuous:
		e.runContinuous()
	default:
		return nil, fmt.Errorf("sim: unknown policy %v", cfg.Policy)
	}
	return e.finish(), nil
}

// engine holds one run's mutable state.
type engine struct {
	v        *video.Video
	cfg      Config
	lat      *core.LatencyModel
	det      detect.Detector
	tracker  track.Tracker
	ctrl     *adapt.Controller
	delta    time.Duration
	run      *trace.Run
	outputs  []core.FrameOutput
	faultDet *fault.Detector // non-nil when a fault profile is injected
	faultTrk *fault.Tracker
	labels   []obs.Label // stream=<id> in multi-stream runs, else none
}

func newEngine(v *video.Video, cfg Config) *engine {
	root := rng.New(cfg.Seed).DeriveString("sim")
	det, tr := fault.Components(v, cfg.Seed, cfg.PixelMode, cfg.Detector, cfg.NewTracker)
	var model *adapt.Model // nil: the setting never switches
	if cfg.Policy == PolicyAdaVP {
		model = cfg.Adaptation
		if model == nil {
			model = adapt.DefaultModel()
		}
	}
	var fd *fault.Detector
	var ft *fault.Tracker
	if cfg.Fault != nil {
		fd = fault.NewDetector(det, *cfg.Fault, fault.Virtual)
		det = fd
		ft = fault.NewTracker(tr, *cfg.Fault, fault.Virtual)
		tr = ft
	}
	return &engine{
		v:        v,
		cfg:      cfg,
		lat:      core.NewLatencyModel(root.DeriveString("latency")),
		det:      det,
		tracker:  tr,
		ctrl:     adapt.NewController(model, cfg.NoVelocitySmoothing),
		delta:    v.FrameInterval(),
		run:      &trace.Run{Video: v.Name, Policy: cfg.Policy.String()},
		outputs:  make([]core.FrameOutput, v.NumFrames()),
		faultDet: fd,
		faultTrk: ft,
		labels:   obs.WithStream(cfg.streamLabel),
	}
}

// frame fetches a frame, rendering pixels only in pixel mode.
func (e *engine) frame(i int) core.Frame {
	if e.cfg.PixelMode {
		return e.v.FrameWithPixels(i)
	}
	return e.v.Frame(i)
}

// capturedAt returns the newest frame index captured at or before t.
func (e *engine) capturedAt(t time.Duration) int {
	idx := int(t / e.delta)
	if idx >= e.v.NumFrames() {
		idx = e.v.NumFrames() - 1
	}
	return idx
}

// busy records a busy interval and returns its end. It is also the
// observability choke point: every hardware-busy span maps to one stage
// latency observation, exactly mirroring what trace.Run.Hydrate later
// reconstructs from the Busy log — so inline and hydrated registries agree.
func (e *engine) busy(res trace.Resource, s core.Setting, start, dur time.Duration) time.Duration {
	end := start + dur
	e.run.Busy = append(e.run.Busy, trace.Interval{Resource: res, Setting: s, Start: start, End: end})
	if e.cfg.Obs != nil {
		trace.ObserveInterval(e.cfg.Obs, res, s, dur, e.labels...)
	}
	return end
}

// calibrate is one detection, the step every policy shares: frame i runs at
// setting s on the GPU from start to end, and its boxes become frame i's
// output, ready at end. It returns the frame, the tracker's next reference,
// and the boxes, which are sanitized: malformed detections (garbage/NaN
// faults, buggy detectors) must never reach the tracker or the display, and
// Sanitize is the identity on well-formed batches.
func (e *engine) calibrate(i int, s core.Setting, start, end time.Duration) (core.Frame, []core.Detection) {
	e.busy(trace.ResourceGPU, s, start, end-start)
	f := e.frame(i)
	dets := detect.Sanitize(e.det.Detect(f, s))
	e.outputs[i] = core.FrameOutput{FrameIndex: i, Source: core.SourceDetector, Setting: s, Detections: dets, Ready: end}
	return f, dets
}

// simCycle runs adapt.Cycle on the virtual clock. stop draws the next
// task's costs and, but in MARLIN, stops a task that would end past the
// detection (§IV-B); sink charges the same draws unless the task panicked.
type simCycle struct {
	e                *engine
	setting          core.Setting
	cursor, deadline time.Duration
	sequential       bool             // MARLIN: no detection overlaps the tracking
	track, overlay   time.Duration    // the task under way's drawn costs
	last             []core.Detection // the boxes last published
}

func (c *simCycle) fetch(_, i int) (core.Frame, bool) { return c.e.frame(i), true }

func (c *simCycle) stop(k int, from []core.Detection) bool {
	if k < 0 {
		// Feature extraction on the reference frame (Table II: ~40 ms).
		c.track, c.overlay = c.e.lat.FeatureExtract(), 0
	} else {
		c.track, c.overlay = c.e.lat.TrackFrame(len(from)), c.e.lat.Overlay()
	}
	return !c.sequential && c.cursor+c.track+c.overlay > c.deadline
}

func (c *simCycle) sink(t adapt.Task) {
	out := core.FrameOutput{FrameIndex: t.Frame, Source: core.SourceHeld, Setting: c.setting, Detections: t.Dets}
	if !t.Panicked {
		c.cursor = c.e.busy(trace.ResourceCPUTrack, core.SettingInvalid, c.cursor, c.track)
		if t.K < 0 {
			// The adaptation module also reads the motion features
			// (negligible).
			c.cursor += c.e.lat.MotionFeature()
			return
		}
		c.cursor = c.e.busy(trace.ResourceCPUOverlay, core.SettingInvalid, c.cursor, c.overlay)
		out.Source = core.SourceTracker
	}
	if t.K >= 0 {
		out.Ready = c.cursor
		c.e.outputs[t.Frame], c.last = out, t.Dets
	}
}

// parallelState carries the MPDT/AdaVP loop state between detection cycles.
// Single-stream runs drive it in a tight loop (runParallel); the multi-stream
// scheduler (RunMulti) keeps one per stream and interleaves cycles from many
// engines over shared detector slots, granting each stream one cycle at a
// time at whatever virtual time its slot became available.
type parallelState struct {
	prev     core.Frame // last detected frame; Index -1 before the first calibration
	prevDets []core.Detection
	setting  core.Setting
	cycle    int
}

// newParallelState is a stream's state before its first cycle.
func (e *engine) newParallelState() *parallelState {
	return &parallelState{prev: core.Frame{Index: -1}, setting: e.cfg.Setting}
}

// cyclePlan is the pre-execution half of one detection cycle: everything the
// scheduler must know *before* committing GPU time — the adaptation decision
// (applied to st), the frame to detect and the single-request detection
// duration draw. Splitting plan from exec is what lets the batching
// scheduler plan every member of a batch first, fuse their durations through
// serve.BatchLatency, and then execute each member against the shared batch
// end time; the unbatched path recombines them with end = now+detDur, and
// because plan and exec together perform the engine's rng draws in exactly
// the pre-split order, the B=1 schedule is byte-identical to the
// one-request-per-grant scheduler.
type cyclePlan struct {
	start   time.Duration // grant time, before any setting switch
	now     time.Duration // detection start: grant plus switch overhead
	frame   int           // frame to detect
	setting core.Setting  // setting the detection runs at
	detDur  time.Duration // single-request detection duration draw
	done    bool          // video exhausted: no detection, slot frees at now
}

// span is the plan's single-request slot span: switch overhead plus one
// unbatched inference (zero-detection for a done plan).
func (p cyclePlan) span() time.Duration {
	return p.now - p.start + p.detDur
}

// planCycle plans one detection-and-tracking cycle starting at the given
// virtual time: the adaptation decision (AdaVP, applied to st), the frame to
// detect and the detection duration draw. A stream's first cycle detects
// frame 0, however late its grant comes. A done plan means the video is
// exhausted — no detection runs and the slot frees at plan.now (at most a
// setting-switch overhead past the grant).
func (e *engine) planCycle(st *parallelState, start time.Duration) cyclePlan {
	n := e.v.NumFrames()
	now := start

	// Adaptation decision (AdaVP): velocity measured during the cycle
	// that just completed chooses the setting for the next one.
	if next, vel, ok := e.ctrl.Next(st.setting); ok {
		var took time.Duration
		if next != st.setting {
			took = e.lat.SettingSwitch()
			e.run.Switches = append(e.run.Switches, trace.Switch{CycleIndex: st.cycle, From: st.setting, To: next, At: now, Took: took})
		}
		adapt.PublishDecision(e.cfg.Obs, st.setting, next, vel, took, now, e.labels...)
		now += took
		st.setting = next
	}

	nextFrame := e.capturedAt(now)
	switch {
	case st.prev.Index < 0:
		nextFrame = 0
	case nextFrame <= st.prev.Index:
		nextFrame = st.prev.Index + 1
	}
	if nextFrame >= n {
		return cyclePlan{start: start, now: now, setting: st.setting, done: true}
	}
	return cyclePlan{start: start, now: now, frame: nextFrame, setting: st.setting, detDur: e.lat.Detect(st.setting)}
}

// execCycle executes a planned cycle with the slot held until end: the
// detection on the GPU (end ≥ now+detDur under batching — the fused batch
// stretches every member to the batch's completion) with the buffered frames
// tracked concurrently on the CPU inside the same window. It returns end.
func (e *engine) execCycle(st *parallelState, p cyclePlan, end time.Duration) time.Duration {
	detected, dets := e.calibrate(p.frame, p.setting, p.now, end)

	// CPU, concurrently: track the buffered frames (prev+1 .. frame-1)
	// against prev's detections, within the detection window.
	ref := st.prev.Index
	buffered := p.frame - 1 - ref
	plan := e.ctrl.Plan(ref+1, buffered)
	if e.cfg.TrackAllFrames {
		plan = plan[:0]
		for i := ref + 1; i < p.frame; i++ {
			plan = append(plan, i)
		}
	}
	c := simCycle{e: e, setting: p.setting, cursor: p.now, deadline: end}
	tracked, velocity := adapt.Cycle{Tracker: e.tracker, Ref: st.prev, RefDets: st.prevDets, Plan: plan}.Run(
		adapt.Hooks{Fetch: c.fetch, Stop: c.stop, Sink: c.sink})
	e.ctrl.Observe(buffered, tracked, velocity)

	e.run.Cycles = append(e.run.Cycles, trace.Cycle{
		Index: st.cycle, Setting: p.setting, DetectedFrame: p.frame,
		Start: p.now, End: end,
		FramesBuffered: buffered, FramesTracked: tracked, Velocity: velocity,
	})
	st.prev, st.prevDets = detected, dets
	st.cycle++
	return end
}

// runParallel implements MPDT and AdaVP: GPU and CPU work concurrently. It
// is the single-stream special case of the multi-stream scheduler — the one
// detector slot is always immediately re-granted to the same stream.
func (e *engine) runParallel() {
	st := e.newParallelState()
	var now time.Duration
	for {
		p := e.planCycle(st, now)
		if p.done {
			now = p.now
			break
		}
		now = e.execCycle(st, p, p.now+p.detDur)
	}
	e.run.Duration = max(now, time.Duration(e.v.NumFrames())*e.delta)
}

// runMARLIN implements the sequential baseline: the tracker runs between
// detections and a scene-change threshold on its velocity re-triggers the
// detector; the two never overlap.
func (e *engine) runMARLIN() {
	n := e.v.NumFrames()
	setting := e.cfg.Setting
	var now time.Duration
	cycle := 0

	detFrame := 0
	for {
		// Detection (tracker idle).
		end := now + e.lat.Detect(setting)
		ref, dets := e.calibrate(detFrame, setting, now, end)
		e.run.Cycles = append(e.run.Cycles, trace.Cycle{Index: cycle, Setting: setting, DetectedFrame: detFrame, Start: now, End: end})
		cycle++
		now = end

		// Feature extraction, then sequential tracking: the tracker works
		// through the backlog that accumulated during detection (Fig. 4's
		// frames m0+1 .. m1-1), round by round, applying the same
		// tracking-frame selection as MPDT. A round whose mean velocity
		// exceeds the scene-change threshold re-triggers the detector.
		// A tracker that panics in Init cannot track this detection:
		// detect again at once.
		featDur := e.lat.FeatureExtract()
		initialized := adapt.Recovered(func() { e.tracker.Init(ref, dets) })
		if initialized {
			now = e.busy(trace.ResourceCPUTrack, core.SettingInvalid, now, featDur)
		}

		cursorFrame := detFrame
		c := simCycle{e: e, setting: setting, sequential: true, last: dets}
		triggered := !initialized
		for !triggered {
			live := e.capturedAt(now)
			if live <= cursorFrame {
				if cursorFrame >= n-1 {
					break
				}
				// Caught up: wait for the next capture.
				now = time.Duration(cursorFrame+1) * e.delta
				live = cursorFrame + 1
			}
			backlog := live - cursorFrame
			c.cursor = now
			tracked, velocity := adapt.Cycle{Tracker: e.tracker, RefDets: c.last, SkipInit: true,
				Plan: e.ctrl.Plan(cursorFrame+1, backlog)}.Run(adapt.Hooks{Fetch: c.fetch, Stop: c.stop, Sink: c.sink})
			now, cursorFrame = c.cursor, live
			e.ctrl.Observe(backlog, tracked, velocity)
			triggered = velocity > MARLINTrigger
		}
		if !triggered || cursorFrame >= n-1 {
			break
		}
		// Trigger: detect the newest frame.
		detFrame = e.capturedAt(now)
		if detFrame <= cursorFrame {
			detFrame = cursorFrame + 1
			now = time.Duration(detFrame) * e.delta
		}
		if detFrame >= n {
			break
		}
	}
	e.run.Duration = max(now, time.Duration(n)*e.delta)
}

// runNoTracking implements the detector-only baseline: always detect the
// newest frame; every other frame reuses the previous result.
func (e *engine) runNoTracking() {
	n := e.v.NumFrames()
	setting := e.cfg.Setting
	var now time.Duration
	frame := 0
	cycle := 0
	for frame < n {
		end := now + e.lat.Detect(setting)
		e.calibrate(frame, setting, now, end)
		e.run.Cycles = append(e.run.Cycles, trace.Cycle{Index: cycle, Setting: setting, DetectedFrame: frame, Start: now, End: end})
		cycle++
		now = end
		next := e.capturedAt(now)
		if next <= frame {
			next = frame + 1
		}
		frame = next
	}
	e.run.Duration = max(now, time.Duration(n)*e.delta)
}

// runContinuous detects every frame in order with no skipping. The GPU is
// busy for frames × latency — the 7× / 10.3× real-time rows of Table III.
// Accuracy is scored per frame against that frame's own detections (the
// paper's "latency not considered" convention).
func (e *engine) runContinuous() {
	n := e.v.NumFrames()
	setting := e.cfg.Setting
	var now time.Duration
	for i := 0; i < n; i++ {
		end := now + e.lat.Detect(setting)
		e.calibrate(i, setting, now, end)
		if i%64 == 0 || i == n-1 {
			e.run.Cycles = append(e.run.Cycles, trace.Cycle{Index: i, Setting: setting, DetectedFrame: i, Start: now, End: end})
		}
		now = end
	}
	e.run.Duration = now
}

// finish fills held outputs, evaluates per-frame F1 and assembles the result.
func (e *engine) finish() *Result {
	n := e.v.NumFrames()
	core.HoldFill(e.outputs[:n])
	// Export the injected-fault log (the virtual clock has no per-call
	// timestamps for wrapped components).
	if e.faultDet != nil {
		for _, ev := range append(e.faultDet.Events(), e.faultTrk.Events()...) {
			e.run.Faults = append(e.run.Faults, ev.Trace())
		}
	}
	e.run.Outputs = e.outputs
	e.run.FrameF1 = make([]float64, n)
	for i := 0; i < n; i++ {
		e.run.FrameF1[i] = metrics.FrameF1(e.outputs[i].Detections, e.v.Truth(i), e.cfg.IoU)
	}
	// Outcome telemetry (frame/cycle counters, fault journal, velocity
	// gauge) is published through the same helper trace.Run.Hydrate uses, so
	// an inline-instrumented run and a hydrated trace yield equal snapshots.
	if e.cfg.Obs != nil {
		e.run.HydrateOutcome(e.cfg.Obs, e.labels...)
	}
	return &Result{
		Run:      e.run,
		Accuracy: metrics.VideoAccuracy(e.run.FrameF1, e.cfg.Alpha),
		MeanF1:   metrics.Mean(e.run.FrameF1),
	}
}
