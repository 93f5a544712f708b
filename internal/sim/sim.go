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
	"math"
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

// Run executes one policy over one video. A panicking component (possible
// with user-supplied detectors/trackers outside the fault framework) is
// recovered into an error rather than killing the caller. In pixel mode the
// run holds par's worker gangs (par.Hold) from start to return.
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
// output, ready at end. The boxes are sanitized: malformed detections
// (garbage/NaN faults, buggy detectors) must never reach the tracker or the
// display, and Sanitize is the identity on well-formed batches.
func (e *engine) calibrate(i int, s core.Setting, start, end time.Duration) []core.Detection {
	e.busy(trace.ResourceGPU, s, start, end-start)
	dets := detect.Sanitize(e.det.Detect(e.frame(i), s))
	e.outputs[i] = core.FrameOutput{FrameIndex: i, Source: core.SourceDetector, Setting: s, Detections: dets, Ready: end}
	return dets
}

// noDeadline lets trackFrames step through its whole plan: the sequential
// baseline never overlaps a detection that could cut its tracking short.
const noDeadline = time.Duration(math.MaxInt64)

// trackFrames is the tracking step every tracking policy shares: it steps the
// tracker through the planned frames (offsets past ref) from boxes cur,
// starting at virtual time cursor, and writes each tracked output. A frame
// whose tracking and overlay would end past deadline stops the loop (§IV-B:
// when the detector finishes, the tracker cancels its remaining tasks). It
// returns the frames tracked, their mean valid velocity (-1 without one),
// the cursor and the last boxes.
func (e *engine) trackFrames(ref int, plan []int, cur []core.Detection, setting core.Setting, cursor, deadline time.Duration) (int, float64, time.Duration, []core.Detection) {
	tracked := 0
	var velSum float64
	var velN int
	for _, idx := range plan {
		frameIdx := ref + 1 + idx
		trackDur := e.lat.TrackFrame(len(cur))
		overlayDur := e.lat.Overlay()
		if cursor+trackDur+overlayDur > deadline {
			break
		}
		dets, vel := e.tracker.Step(e.frame(frameIdx))
		dets = detect.Sanitize(dets)
		cursor = e.busy(trace.ResourceCPUTrack, core.SettingInvalid, cursor, trackDur)
		cursor = e.busy(trace.ResourceCPUOverlay, core.SettingInvalid, cursor, overlayDur)
		e.outputs[frameIdx] = core.FrameOutput{FrameIndex: frameIdx, Source: core.SourceTracker, Setting: setting, Detections: dets, Ready: cursor}
		// NaN, ±Inf and absurd velocities (faulting trackers) must never
		// reach the controller's estimate.
		if track.ValidVelocity(vel) {
			velSum += vel
			velN++
		}
		cur = dets
		tracked++
	}
	if velN == 0 {
		return tracked, -1, cursor, cur
	}
	return tracked, velSum / float64(velN), cursor, cur
}

// parallelState carries the MPDT/AdaVP loop state between detection cycles.
// Single-stream runs drive it in a tight loop (runParallel); the multi-stream
// scheduler (RunMulti) keeps one per stream and interleaves cycles from many
// engines over shared detector slots, granting each stream one cycle at a
// time at whatever virtual time its slot became available.
type parallelState struct {
	prevFrame int // last detected frame; <0 before the first calibration
	prevDets  []core.Detection
	setting   core.Setting
	cycle     int
}

// newParallelState is a stream's state before its first cycle.
func (e *engine) newParallelState() *parallelState {
	return &parallelState{prevFrame: -1, setting: e.cfg.Setting}
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
	case st.prevFrame < 0:
		nextFrame = 0
	case nextFrame <= st.prevFrame:
		nextFrame = st.prevFrame + 1
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
	dets := e.calibrate(p.frame, p.setting, p.now, end)

	// CPU, concurrently: track the buffered frames (prevFrame+1 ..
	// frame-1) against prevFrame's detections, within the detection
	// window.
	buffered := p.frame - 1 - st.prevFrame
	tracked, velocity := e.trackCycle(st.prevFrame, st.prevDets, p.frame, p.setting, p.now, end)
	e.ctrl.Observe(buffered, tracked, velocity)

	e.run.Cycles = append(e.run.Cycles, trace.Cycle{
		Index: st.cycle, Setting: p.setting, DetectedFrame: p.frame,
		Start: p.now, End: end,
		FramesBuffered: buffered, FramesTracked: tracked, Velocity: velocity,
	})
	st.prevFrame = p.frame
	st.prevDets = dets
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
	e.run.Duration = maxDuration(now, time.Duration(e.v.NumFrames())*e.delta)
}

// trackCycle runs the tracker over the frames buffered during one detection
// (those between refFrame and endFrame), writing tracked outputs, from start
// until the detection ends at deadline. It returns the number of frames
// tracked and the mean motion velocity observed (-1 when nothing could be
// measured).
func (e *engine) trackCycle(refFrame int, refDets []core.Detection, endFrame int, setting core.Setting, start, deadline time.Duration) (int, float64) {
	buffered := endFrame - 1 - refFrame
	if buffered <= 0 {
		return 0, -1
	}
	// Feature extraction on the reference frame (Table II: ~40 ms).
	featDur := e.lat.FeatureExtract()
	if start+featDur > deadline {
		return 0, -1
	}
	e.tracker.Init(e.frame(refFrame), refDets)
	// The adaptation module also reads the motion features (negligible).
	cursor := e.busy(trace.ResourceCPUTrack, core.SettingInvalid, start, featDur) + e.lat.MotionFeature()

	plan := e.ctrl.Plan(buffered)
	if e.cfg.TrackAllFrames {
		plan = plan[:0]
		for i := 0; i < buffered; i++ {
			plan = append(plan, i)
		}
	}
	tracked, velocity, _, _ := e.trackFrames(refFrame, plan, refDets, setting, cursor, deadline)
	return tracked, velocity
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
		dets := e.calibrate(detFrame, setting, now, end)
		e.run.Cycles = append(e.run.Cycles, trace.Cycle{Index: cycle, Setting: setting, DetectedFrame: detFrame, Start: now, End: end})
		cycle++
		now = end

		// Feature extraction, then sequential tracking: the tracker works
		// through the backlog that accumulated during detection (Fig. 4's
		// frames m0+1 .. m1-1), round by round, applying the same
		// tracking-frame selection as MPDT. A round whose mean velocity
		// exceeds the scene-change threshold re-triggers the detector.
		featDur := e.lat.FeatureExtract()
		e.tracker.Init(e.frame(detFrame), dets)
		now = e.busy(trace.ResourceCPUTrack, core.SettingInvalid, now, featDur)

		cursorFrame := detFrame
		cur := dets
		triggered := false
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
			var tracked int
			var velocity float64
			tracked, velocity, now, cur = e.trackFrames(cursorFrame, e.ctrl.Plan(backlog), cur, setting, now, noDeadline)
			cursorFrame = live
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
	e.run.Duration = maxDuration(now, time.Duration(n)*e.delta)
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
	e.run.Duration = maxDuration(now, time.Duration(n)*e.delta)
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

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
