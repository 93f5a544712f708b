// Package rt is the real-time, multithreaded implementation of the AdaVP
// pipeline — the concurrency structure of the paper's §IV-B and §V built
// with actual goroutines rather than the virtual clock of internal/sim:
//
//   - The camera is a clock, not a thread: frame i is captured at run start
//     plus i scaled frame intervals. (The paper's frame buffer holds pixels;
//     here a frame is a pure function of its index, so all the buffer ever
//     carried was one integer, elapsed/interval.) The calling goroutine
//     assembles the displayed outputs.
//   - The object detector thread repeatedly fetches the newest frame, runs the
//     DNN (its latency is emulated by sleeping the calibrated duration, scaled
//     by Config.TimeScale), and hands the results to the tracker.
//   - The object tracker thread tracks the frames accumulated between two
//     detections, honoring the tracking-frame selection scheme, through
//     adapt.Cycle, the step sim runs too. Before every task, Init included,
//     it asks whether the detector has fetched a new frame, and if so
//     cancels its remaining work; a task that started completes (§IV-B's
//     synchronization rule). A tracker panic is recovered in place: the
//     frame it hit is held and the cycle ends. The thread reads the planned
//     frames through a stagedRing, which in pixel mode at
//     Config.PipelineDepth > 1 renders up to depth-1 of them ahead.
//
// Shared data (detection results, display outputs) is guarded by a mutex and
// atomics; cross-thread signalling is the generation counter plus a channel
// for the detection hand-off, mirroring the paper's "lock + event" design.
// The package is exercised under the race detector.
//
// Two schedules run over these parts: Run is the camera-paced, frame-dropping
// MPDT above; RunPipelined (pipeline.go) processes every frame at a fixed
// cadence, byte-deterministic at any depth. Merging the loops would make each
// shared step branch on its caller; everything under them, the prefetch
// ring included, exists once.
//
// The pipeline is supervised (internal/guard): every Detect call runs in a
// goroutine with panic recovery and a watchdog deadline derived from the
// calibrated per-setting latency. On a timeout, panic or empty burst the
// run enters a degraded health state — the previous calibration stays on
// screen, the cycle retries with capped exponential backoff, and repeated
// faults escalate to a smaller/faster model setting — then recovers to
// normal after enough consecutive clean cycles. Deterministic fault
// campaigns are injected with Config.Fault (internal/fault).
package rt

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/fault"
	"adavp/internal/guard"
	"adavp/internal/metrics"
	"adavp/internal/obs"
	"adavp/internal/par"
	"adavp/internal/rng"
	"adavp/internal/trace"
	"adavp/internal/track"
	"adavp/internal/video"
)

// Config parameterizes a live run.
type Config struct {
	// Setting is the fixed (or initial, when Adaptation is set) DNN setting.
	// Default: Setting512.
	Setting core.Setting
	// Adaptation enables AdaVP's runtime model switching; nil runs fixed
	// MPDT.
	Adaptation *adapt.Model
	// Detector overrides the default detector: the BlobDetector in pixel
	// mode, the calibrated SimDetector otherwise.
	Detector detect.Detector
	// NewTracker overrides the default tracker factory: the PixelTracker in
	// pixel mode, the ModelTracker otherwise.
	NewTracker func(seed uint64) track.Tracker
	// TimeScale scales all emulated latencies and the camera interval.
	// 1.0 is real time; 0.02 runs fifty times faster. Default: 0.02.
	TimeScale float64
	// Seed derives detector noise and latency jitter.
	Seed uint64
	// PixelMode renders frames and runs the pixel detector and tracker
	// unless Detector or NewTracker override them.
	PixelMode bool
	// Fault, when set, wraps the detector and tracker with the profile's
	// deterministic fault schedule (internal/fault, Live mode).
	Fault *fault.Profile
	// Guard tunes the supervision layer; the zero value takes the
	// documented defaults. Its Obs and Stream are set from Obs and StreamID.
	Guard guard.Config
	// Obs, when set, receives live telemetry under the shared schema:
	// per-stage wall-clock latency histograms (detect labeled with the model
	// setting and the supervisor's health at observation time), frame/cycle/
	// switch counters, the velocity gauge, guard health and events, and
	// injected-fault counts. It is also handed to the supervisor. Nil
	// disables publishing.
	Obs *obs.Registry
	// StreamID, when non-empty, labels every published series with
	// stream=<id> and is forwarded to the detector-slot provider and the
	// guard supervisor, so N pipelines sharing one registry and one slot
	// pool stay distinguishable. Set by serve.Run.
	StreamID string
	// Slots is the detector-slot provider the detector thread acquires a
	// slot from before every inference (serve.Pool in multi-stream runs).
	// Nil runs against a dedicated always-free slot — the single-stream
	// special case (N=1, K=1).
	Slots DetectorSlots
	// PipelineDepth, when >1 in pixel mode, is the depth of the tracker
	// thread's stagedRing: it renders up to PipelineDepth-1 of the cycle's
	// planned frames ahead of the current step, also while the detector
	// thread queues in Slots.Acquire, so another stream's detect sleep
	// overlaps this stream's renders. Behavior-neutral: a rendered frame is a
	// pure function of its index, and the ring never touches the slot pool.
	// Depth ≤ 1, or model mode, fetches every frame inline.
	PipelineDepth int
}

// DetectorSlots grants shared detector slots to competing streams. The live
// implementation is serve.Pool; the interface is declared here (with
// basic-typed arguments) so the serving layer can depend on rt and not the
// other way around.
type DetectorSlots interface {
	// Acquire blocks until a detector slot is granted or ctx is cancelled.
	// stream identifies the caller; setting is the model setting it holds at
	// request time — the batch compatibility key a batching pool fuses
	// grants on (the caller's post-grant adaptation may still switch);
	// lastCalib is the pipeline time its most recent calibration completed
	// (zero before the first) — the oldest-calibration-first fairness key.
	// The returned release must be called exactly once, when the inference
	// is done. A non-ctx error is backpressure: the wait queue is full, and
	// the caller skips this detection — it keeps tracking against its
	// previous calibration and retries on a later frame, so staleness grows
	// instead of memory.
	Acquire(ctx context.Context, stream string, setting core.Setting, lastCalib time.Duration) (release func(), err error)
}

func (c Config) withDefaults() Config {
	if c.Setting == core.SettingInvalid {
		c.Setting = core.Setting512
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 0.02
	}
	return c
}

// Result summarizes a live run.
type Result struct {
	Outputs  []core.FrameOutput
	FrameF1  []float64
	Accuracy float64
	MeanF1   float64
	// Cycles counts completed detection cycles; Switches counts setting
	// changes (AdaVP only).
	Cycles   int
	Switches int
	// Deferred counts detections deferred because the shared slot pool
	// refused the request (bounded-queue backpressure). A pending detection
	// refused across consecutive attempts counts once — frames, not retries.
	// Always zero without Config.Slots.
	Deferred int
	// MaxCalibAge is the longest wall-clock gap between consecutive
	// calibration completions (the first measured from run start) — the
	// live counterpart of sim.StreamOutcome.MaxCalibAge, checked against
	// serve.FairnessBoundBatched by the chaos soak.
	MaxCalibAge time.Duration
	// MaxSlotOccupancy is the longest this stream held a detector slot
	// (supervision, retries and emulated inference included) — the
	// maxOccupancy term of the fairness bound.
	MaxSlotOccupancy time.Duration
	// Health is the supervisor's final state; Faults its fault/recovery
	// counters (all zero for a clean run).
	Health guard.Health
	Faults guard.Stats
	// Events interleaves injected faults and supervision actions, in order.
	Events []trace.FaultEvent
	// Injected counts the faults the injector actually fired, keyed
	// "component:kind". Nil without a fault profile.
	Injected map[string]int
	// Partial marks a run cut short by context cancellation: Outputs and
	// the metrics cover the frames that completed before the cut.
	Partial bool
	// PrefetchedWhileWaiting counts the tracker ring's builds that completed
	// while the detector thread was blocked in slot acquisition. Always zero
	// when Config.PipelineDepth ≤ 1 or in model mode.
	PrefetchedWhileWaiting int
}

// camera is the capture clock: frame i is captured at start + i·interval, so
// the newest captured frame is elapsed/interval. Pacing is absolute (derived
// from elapsed wall time) so coarse OS timer resolution cannot skew the frame
// rate relative to the scaled component latencies. A value, safe to share:
// every waiter sleeps on its own timer.
type camera struct {
	ctx      context.Context // the run's; ends every wait
	start    time.Time
	interval time.Duration // scaled capture interval, > 0
	n        int           // frames in the video
}

// newest returns the index of the most recently captured frame.
func (c camera) newest() int {
	return min(int(time.Since(c.start)/c.interval), c.n-1)
}

// waitNewer blocks until a frame newer than `than` has been captured and
// returns the newest one. ok is false when there is none to wait for: the
// stream ends at than, or the run was cancelled.
func (c camera) waitNewer(than int) (int, bool) {
	due := c.start.Add(time.Duration(than+1) * c.interval)
	if than >= c.n-1 || !sleepCtx(c.ctx, time.Until(due)) {
		return 0, false
	}
	return c.newest(), true
}

// cycleWork is one detection hand-off from the detector to the tracker:
// track frames (Ref.Index, EndFrame) against RefDets, from the reference
// frame the detector already fetched.
type cycleWork struct {
	Ref        core.Frame
	RefDets    []core.Detection
	EndFrame   int
	Setting    core.Setting
	Generation uint64
}

// Run executes the live pipeline over a video. It returns when every frame
// has been fed and all in-flight work has drained. When ctx is cancelled
// mid-run it returns the *partial* Result alongside the error, so callers
// can still evaluate the frames that did complete. In pixel mode the run
// holds par's worker gangs (par.Hold) from start to return.
func Run(ctx context.Context, v *video.Video, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if v == nil || v.NumFrames() == 0 {
		return nil, fmt.Errorf("rt: empty video")
	}
	cfg.Guard.Obs, cfg.Guard.Stream = cfg.Obs, cfg.StreamID
	det, tr := fault.Components(v, cfg.Seed, cfg.PixelMode, cfg.Detector, cfg.NewTracker)
	p := &pipeline{
		v:       v,
		cfg:     cfg,
		det:     det,
		tracker: tr,
		ctrl:    adapt.NewController(cfg.Adaptation, false),
		sup:     guard.New(cfg.Guard),
		outputs: make([]core.FrameOutput, v.NumFrames()),
		work:    make(chan cycleWork, 1),
		depth:   1,
	}
	if cfg.PixelMode {
		p.depth = max(cfg.PipelineDepth, 1)
		defer par.Hold()()
	}
	p.waitBase.Store(-1)
	p.resolveSeries()
	if cfg.Fault != nil {
		p.fdet = fault.NewDetector(det, *cfg.Fault, fault.Live)
		p.det = p.fdet
		p.ftrk = fault.NewTracker(tr, *cfg.Fault, fault.Live)
		p.tracker = p.ftrk
	}
	// Each thread gets its own latency model: the jitter stream is not
	// safe for concurrent use.
	root := rng.New(cfg.Seed)
	p.latDet = core.NewLatencyModel(root.DeriveString("rt-latency-detector"))
	p.latTrk = core.NewLatencyModel(root.DeriveString("rt-latency-tracker"))
	return p.run(ctx)
}

// pipeline holds the shared state of one live run.
type pipeline struct {
	v       *video.Video
	cfg     Config
	det     detect.Detector
	tracker track.Tracker
	latDet  *core.LatencyModel // detector-thread latency emulation
	latTrk  *core.LatencyModel // tracker-thread latency emulation
	sup     *guard.Supervisor
	fdet    *fault.Detector // non-nil when a fault profile is injected
	ftrk    *fault.Tracker
	depth   int // the tracker ring's: PipelineDepth in pixel mode, else 1
	// ctrlMu orders the tracker thread's Plan and Observe with the detector
	// thread's Next; it is never held across a cycle's tracking.
	ctrlMu sync.Mutex
	ctrl   *adapt.Controller
	// start is the run's one clock origin: capture times (cam) and every
	// published `at` timestamp are offsets from it.
	start time.Time
	cam   camera

	work chan cycleWork
	// generation counts detector fetches; the tracker cancels its remaining
	// tasks once the detector has moved on (§IV-B).
	generation atomic.Uint64

	// The frames the tracker ring builds, set before each arm.
	plan []int
	// waitBase is prefetched's value when the detector thread entered its
	// current Slots.Acquire, else -1.
	waitBase   atomic.Int64
	prefetched atomic.Int64 // ring builds completed inside a wait

	outMu    sync.Mutex
	outputs  []core.FrameOutput
	cycles   atomic.Int64
	switches atomic.Int64
	deferred atomic.Int64

	// Written only by the detector goroutine, read by finish after wg.Wait.
	maxCalibAge time.Duration
	maxSlotOcc  time.Duration

	// Every fixed-label series the two threads publish, resolved once so an
	// un-instrumented stream (nil registry: nil handles, no-op methods) pays
	// a nil check per observation, not a label-slice allocation.
	stream    []obs.Label // stream=<id>, or nil for a single-stream run
	deferredC *obs.Counter
	cyclesC   *obs.Counter
	slotWaitH *obs.Histogram
	slotExecH *obs.Histogram
	trackH    *obs.Histogram
	overlayH  *obs.Histogram
	prefetchH *obs.Histogram
	// Nil below depth 2, where nothing is prefetched.
	prefetchedC *obs.Counter
	waitingG    *obs.Gauge
}

func (p *pipeline) resolveSeries() {
	reg, ls := p.cfg.Obs, obs.WithStream(p.cfg.StreamID)
	p.stream = ls
	p.deferredC = reg.Counter(obs.MetricDetectDeferred, ls...)
	p.cyclesC = reg.Counter(obs.MetricCycles, ls...)
	p.slotWaitH = reg.Histogram(obs.MetricSlotWait, obs.DefLatencyBuckets, ls...)
	p.slotExecH = reg.Histogram(obs.MetricSlotExec, obs.DefLatencyBuckets, ls...)
	p.trackH = reg.StageHistogram(obs.StageTrack, ls...)
	p.overlayH = reg.StageHistogram(obs.StageOverlay, ls...)
	p.prefetchH = reg.StageHistogram(obs.StagePrefetch, ls...)
	if p.depth > 1 {
		p.prefetchedC = reg.Counter(obs.MetricPrefetchedWaiting, ls...)
		p.waitingG = reg.Gauge(obs.MetricFramesInFlightWaiting, ls...)
	}
}

// observeDetect records one detect-stage sample, labeled with the setting
// that ended the cycle and the health it left behind — labels only known
// then, so an instrumented run looks the series up per cycle.
func (p *pipeline) observeDetect(s core.Setting, d time.Duration) {
	if p.cfg.Obs == nil {
		return
	}
	ls := append([]obs.Label{obs.L("setting", s.String()), obs.L("health", p.sup.Health().String())}, p.stream...)
	p.cfg.Obs.StageHistogram(obs.StageDetect, ls...).ObserveDuration(d)
}

// frame fetches a frame (with pixels only in pixel mode).
func (p *pipeline) frame(i int) core.Frame {
	if p.cfg.PixelMode {
		return p.v.FrameWithPixels(i)
	}
	return p.v.Frame(i)
}

// buildStep is the tracker ring's build: fetch the cycle's k-th planned
// frame, banking it when it lands while the detector thread waits for a slot.
func (p *pipeline) buildStep(k int, slot *pipeSlot) {
	t0 := time.Now()
	slot.frame = p.frame(p.plan[k])
	p.prefetchH.ObserveDuration(time.Since(t0))
	if base := p.waitBase.Load(); base >= 0 && p.depth > 1 {
		n := p.prefetched.Add(1)
		p.prefetchedC.Inc()
		p.waitingG.Set(float64(n - base))
	}
}

// sleep emulates a component latency, scaled.
func (p *pipeline) sleep(d time.Duration) { sleepScaled(d, p.cfg.TimeScale) }

// setOutput records a frame's displayed result.
func (p *pipeline) setOutput(out core.FrameOutput) {
	p.outMu.Lock()
	p.outputs[out.FrameIndex] = out
	p.outMu.Unlock()
}

func (p *pipeline) run(ctx context.Context) (*Result, error) {
	p.start = time.Now()
	p.cam = camera{ctx: ctx, start: p.start, n: p.v.NumFrames(),
		interval: max(scaleDur(p.v.FrameInterval(), p.cfg.TimeScale), time.Microsecond)}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // object detector thread
		defer wg.Done()
		defer close(p.work)
		p.detectorLoop(ctx)
	}()
	go func() { // object tracker thread
		defer wg.Done()
		p.trackerLoop(ctx)
	}()
	wg.Wait()
	res := p.finish()
	if err := ctx.Err(); err != nil {
		res.Partial = true
		return res, fmt.Errorf("rt: run cancelled: %w", err)
	}
	return res, nil
}

// detectDeadline returns the wall-clock watchdog deadline for one Detect
// call at the given setting: the calibrated budget scaled to wall time,
// floored so that near-instant emulated calls are never spuriously flagged.
func (p *pipeline) detectDeadline(s core.Setting) time.Duration {
	return max(scaleDur(p.latDet.DetectBudget(s, guard.WatchdogFactor), p.cfg.TimeScale), p.sup.Config().MinDeadline)
}

// superviseDetect runs one detection cycle under supervision: panic
// recovery, watchdog deadline, bounded retries with backoff, and model
// downgrades on repeated faults. ok is false when every attempt failed —
// the caller then keeps the previous calibration on screen. The returned
// setting reflects any downgrade (or post-recovery restore) applied.
func (p *pipeline) superviseDetect(ctx context.Context, frame core.Frame, setting core.Setting) ([]core.Detection, core.Setting, bool) {
	cycle, frameIdx := int(p.cycles.Load()), frame.Index
	for attempt := 0; ; attempt++ {
		s := setting
		dets, outcome := p.sup.Call(p.detectDeadline(s), func(callCtx context.Context) []core.Detection {
			// callCtx is the watchdog's abandonment signal for this one call,
			// distinct from the run-level ctx.
			return detect.DetectWith(callCtx, p.det, frame, s)
		})
		at := time.Since(p.start)
		if outcome == guard.OK {
			dets = detect.Sanitize(dets)
			recovered := p.sup.ObserveSuccess(len(dets) == 0, cycle, frameIdx, at)
			if recovered && p.cfg.Adaptation == nil {
				// Fixed-setting runs return to the configured model once
				// healthy; adaptive runs let the adaptation module climb
				// back on its own.
				setting = p.cfg.Setting
			}
			return dets, setting, true
		}
		dec := p.sup.ObserveFault(guard.ComponentDetector, outcome, cycle, frameIdx, at)
		if dec.Downgrade {
			// Check applicability before spending shared escalation budget:
			// at the smallest setting there is nothing to downgrade to, and a
			// stream saturated at 320 must not burn grants other streams
			// could still use (nor may the index ever walk below 320).
			if smaller, ok := core.NextSmaller(setting); ok && p.sup.AllowDowngrade(at) {
				p.sup.NoteDowngrade(cycle, frameIdx, at, setting.String(), smaller.String())
				setting = smaller
			}
		}
		if attempt >= guard.MaxRetries || ctx.Err() != nil {
			return nil, setting, false
		}
		p.sup.NoteRetry(cycle, frameIdx, at)
		if !sleepCtx(ctx, dec.Backoff) {
			return nil, setting, false
		}
	}
}

// detectorState is what the detector thread carries from one cycle to the
// next.
type detectorState struct {
	setting core.Setting
	// prev is the reference frame of the cycle in progress (Index -1 before
	// the first calibration) and prevDets the detections it is tracked from.
	prev     core.Frame
	prevDets []core.Detection
	// lastFetched is the wait cursor: it advances on every fetch, granted or
	// refused, so a refused bootstrap fetch (prev.Index still -1) waits for the
	// NEXT captured frame instead of spinning on — and re-counting — the same
	// one.
	lastFetched int
	// deferring marks a refusal streak already counted: consecutive refused
	// attempts defer one pending detection, and the deferred counter counts
	// the detection once, not once per retry.
	deferring bool
	lastCalib time.Duration
}

// detectorLoop is the GPU thread, written as a slot-requesting client: fetch
// newest frame, acquire a detector slot, adapt the setting, hand the finished
// cycle to the tracker, detect (supervised), release the slot.
func (p *pipeline) detectorLoop(ctx context.Context) {
	d := &detectorState{setting: p.cfg.Setting, prev: core.Frame{Index: -1}, lastFetched: -1}
	// Frame 0 is captured as the clock starts, so the first fetch does not
	// read the clock — however late this thread was scheduled, the run begins
	// with frame 0 — and every later one waits on it.
	for frameIdx, ok := 0, true; ok && ctx.Err() == nil; frameIdx, ok = p.cam.waitNewer(d.lastFetched) {
		d.lastFetched = frameIdx
		release, frameIdx, err := p.acquireSlot(ctx, d, frameIdx)
		if err != nil {
			if ctx.Err() != nil || !p.deferDetection(ctx, d, frameIdx) {
				return
			}
			continue
		}
		// Occupancy runs from the grant to the release: setting-switch
		// overhead plus supervised detection, same definition as sim's
		// StreamOutcome.MaxOccupancy.
		granted := time.Now()
		// Fetching a new frame tells the tracker to wind down (§IV-B).
		gen := p.generation.Add(1)
		if d.prev.Index >= 0 {
			d.setting = p.adaptSetting(d.setting)
			// Hand the accumulated frames to the tracker before starting the
			// new inference, so both work in parallel.
			if !p.handOff(ctx, d, frameIdx, gen) {
				release()
				return
			}
		}
		p.calibrate(ctx, d, frameIdx, granted, release)
	}
}

// acquireSlot claims a detector slot before the cycle commits and returns the
// frame to detect in it: from the shared pool, or — nil Slots, single-stream
// as the N=1, K=1 case — a dedicated one that is always free. The wait is
// measured here; the pool itself is clock-free. Meanwhile the tracker thread
// is still stepping the previous cycle through its ring: the waiting window
// (waitBase) is what attributes the ring's builds to the queueing.
func (p *pipeline) acquireSlot(ctx context.Context, d *detectorState, fetched int) (release func(), frameIdx int, err error) {
	requested := time.Now()
	release, frameIdx, err = func() {}, fetched, ctx.Err()
	if p.cfg.Slots != nil {
		p.waitBase.Store(p.prefetched.Load())
		release, err = p.cfg.Slots.Acquire(ctx, p.cfg.StreamID, d.setting, d.lastCalib)
		p.waitBase.Store(-1)
		p.waitingG.Set(0)
	}
	if err != nil {
		return nil, fetched, err
	}
	d.deferring = false
	p.slotWaitH.ObserveDuration(time.Since(requested))
	if p.cfg.Slots != nil {
		// Frames kept arriving while we queued: detect the newest one, not
		// the one that triggered the request. (Without a queue only scheduler
		// jitter could have moved the clock on, past the frame just fetched.)
		frameIdx = max(fetched, p.cam.newest())
	}
	return release, frameIdx, nil
}

// deferDetection handles backpressure: the pool's wait queue is full. Skip
// this detection — hand the buffered frames to the tracker so it keeps
// extrapolating against the previous calibration — and re-request at the
// next captured frame. Staleness grows; memory does not. It reports false
// when the run was cancelled during the hand-off.
func (p *pipeline) deferDetection(ctx context.Context, d *detectorState, frameIdx int) bool {
	if !d.deferring {
		d.deferring = true
		p.deferred.Add(1)
		p.deferredC.Inc()
	}
	if d.prev.Index < 0 {
		return true
	}
	if !p.handOff(ctx, d, frameIdx, p.generation.Add(1)) {
		return false
	}
	// The next cycle tracks from the deferred frame; its Init needs pixels.
	d.prev = p.frame(frameIdx)
	return true
}

// handOff gives the tracker the frames (prev.Index, endFrame) to track against
// the previous calibration. It reports false when the run was cancelled first.
func (p *pipeline) handOff(ctx context.Context, d *detectorState, endFrame int, gen uint64) bool {
	select {
	case p.work <- cycleWork{Ref: d.prev, RefDets: d.prevDets, EndFrame: endFrame, Setting: d.setting, Generation: gen}:
		return true
	case <-ctx.Done():
		return false
	}
}

// adaptSetting is the model-adaptation step (§IV-D): the controller's
// smoothed velocity estimate, as in sim, picks this cycle's setting, and a
// switch pays the emulated model-load latency.
func (p *pipeline) adaptSetting(cur core.Setting) core.Setting {
	p.ctrlMu.Lock()
	next, vel, ok := p.ctrl.Next(cur)
	p.ctrlMu.Unlock()
	if !ok {
		return cur
	}
	var took time.Duration
	if next != cur {
		swStart := time.Now()
		p.sleep(p.latDet.SettingSwitch())
		p.switches.Add(1)
		took = time.Since(swStart)
	}
	adapt.PublishDecision(p.cfg.Obs, cur, next, vel, took, time.Since(p.start), p.stream...)
	return next
}

// calibrate runs the supervised detection of frameIdx inside the granted
// slot, releases the slot, and publishes the calibration (or, when every
// attempt faulted, holds the previous one on screen). The frame is fetched
// once, for every attempt and for the next cycle's tracker Init.
func (p *pipeline) calibrate(ctx context.Context, d *detectorState, frameIdx int, granted time.Time, release func()) {
	detStart := time.Now()
	frame := p.frame(frameIdx)
	dets, setting, detected := p.superviseDetect(ctx, frame, d.setting)
	d.setting = setting
	p.sleep(p.latDet.Detect(setting))
	occ := time.Since(granted)
	p.maxSlotOcc = max(p.maxSlotOcc, occ)
	release()
	// Execution time (grant → release) is the other half of the
	// queueing/execution split: slotWait measured the queue, this histogram
	// measures the slot itself.
	p.slotExecH.ObserveDuration(occ)
	newCalib := time.Since(p.start)
	p.maxCalibAge = max(p.maxCalibAge, newCalib-d.lastCalib)
	d.lastCalib = newCalib
	// The detect observation spans supervision (including retries and
	// backoff) plus the emulated inference itself.
	p.observeDetect(setting, time.Since(detStart))
	out := core.FrameOutput{FrameIndex: frameIdx, Source: core.SourceDetector, Setting: setting, Detections: dets}
	if detected {
		d.prevDets = dets
	} else {
		// Every attempt faulted: hold the previous calibration on
		// screen and keep tracking against it.
		out.Source, out.Detections = core.SourceHeld, d.prevDets
	}
	p.setOutput(out)
	p.cycles.Add(1)
	p.cyclesC.Inc()
	d.prev = frame
	d.lastFetched = max(d.lastFetched, frameIdx)
}

// trackerLoop is the CPU thread: it tracks each cycle's plan through
// adapt.Cycle, reading the planned frames through the run's stagedRing.
func (p *pipeline) trackerLoop(ctx context.Context) {
	ring := newStagedRing(p.depth, p.buildStep)
	for w := range p.work {
		if ctx.Err() != nil {
			return
		}
		buffered := w.EndFrame - 1 - w.Ref.Index
		p.ctrlMu.Lock()
		p.plan = p.ctrl.Plan(w.Ref.Index+1, buffered)
		p.ctrlMu.Unlock()
		c := rtCycle{p: p, ctx: ctx, ring: ring, w: w, start: time.Now()}
		tracked, vel := adapt.Cycle{Tracker: p.tracker, Ref: w.Ref, RefDets: w.RefDets, Plan: p.plan}.Run(
			adapt.Hooks{Fetch: c.fetch, Stop: c.stop, Sink: c.sink})
		ring.audit()
		p.ctrlMu.Lock()
		p.ctrl.Observe(buffered, tracked, vel)
		p.ctrlMu.Unlock()
	}
}

// rtCycle runs adapt.Cycle on the wall clock: stop once the detector has
// fetched a newer frame (§IV-B), and sink sleeps each task's emulated cost.
type rtCycle struct {
	p     *pipeline
	ctx   context.Context
	ring  *stagedRing
	w     cycleWork
	slot  *pipeSlot // the ring slot last fetched
	start time.Time // when the task under way started
}

func (c *rtCycle) stop(int, []core.Detection) bool { return c.p.generation.Load() > c.w.Generation }

// fetch reads the planned frames through the ring: frame 0 arms it and
// frame k releases slot k-1. A stop leaves the last slot to ring.audit, so
// at most depth-1 builds go unread.
func (c *rtCycle) fetch(k, _ int) (core.Frame, bool) {
	if k == 0 {
		c.ring.arm(c.ctx, len(c.p.plan))
	} else {
		c.ring.release(c.slot, c.slot.pyr)
	}
	var ok bool
	if c.slot, ok = c.ring.next(k); !ok {
		return core.Frame{}, false
	}
	c.start = time.Now()
	return c.slot.frame, true
}

func (c *rtCycle) sink(t adapt.Task) {
	p := c.p
	out := core.FrameOutput{FrameIndex: t.Frame, Source: core.SourceTracker, Setting: c.w.Setting, Detections: t.Dets}
	switch {
	case t.Panicked:
		p.sup.ObserveFault(guard.ComponentTracker, guard.Panicked, int(p.cycles.Load()), t.Frame, time.Since(p.start))
		out.Source = core.SourceHeld
	case t.K < 0:
		// Feature extraction is CPU-track work, as in sim's busy log.
		p.sleep(p.latTrk.FeatureExtract())
		p.trackH.ObserveDuration(time.Since(c.start))
	default:
		p.sleep(p.latTrk.TrackFrame(len(t.From)))
		p.trackH.ObserveDuration(time.Since(c.start))
		ovStart := time.Now()
		p.sleep(p.latTrk.Overlay())
		p.overlayH.ObserveDuration(time.Since(ovStart))
	}
	if t.K >= 0 {
		p.setOutput(out)
	}
}

// finish hold-fills unprocessed frames and evaluates the run.
func (p *pipeline) finish() *Result {
	res := &Result{
		Outputs:                p.outputs,
		Cycles:                 int(p.cycles.Load()),
		Switches:               int(p.switches.Load()),
		Deferred:               int(p.deferred.Load()),
		MaxCalibAge:            p.maxCalibAge,
		MaxSlotOccupancy:       p.maxSlotOcc,
		Health:                 p.sup.Health(),
		Faults:                 p.sup.Stats(),
		Events:                 p.sup.Events(),
		PrefetchedWhileWaiting: int(p.prefetched.Load()),
	}
	if p.fdet != nil {
		res.Injected = make(map[string]int)
		for _, src := range []struct {
			comp   string
			counts map[fault.Kind]int
			events []fault.Event
		}{
			{"detector", p.fdet.Counts(), p.fdet.Events()},
			{"tracker", p.ftrk.Counts(), p.ftrk.Events()},
		} {
			for k, c := range src.counts {
				res.Injected[src.comp+":"+k.String()] = c
			}
			for _, ev := range src.events {
				res.Events = append(res.Events, ev.Trace())
				p.cfg.Obs.Counter(obs.MetricFaultsInjected,
					obs.WithStream(p.cfg.StreamID, obs.L("component", ev.Component), obs.L("kind", ev.Kind.String()))...).Inc()
				component := ev.Component
				if p.cfg.StreamID != "" {
					component += "@" + p.cfg.StreamID
				}
				p.cfg.Obs.Record(time.Since(p.start), component, ev.Kind.String(), "injected")
			}
		}
	}
	core.HoldFill(p.outputs)
	var bySource [core.SourceHeld + 1]int64
	for _, out := range p.outputs {
		bySource[out.Source]++
	}
	for src := core.SourceNone + 1; src <= core.SourceHeld; src++ {
		if n := bySource[src]; n > 0 {
			p.cfg.Obs.Counter(obs.MetricFrames, obs.WithStream(p.cfg.StreamID, obs.L("source", src.String()))...).Add(n)
		}
	}
	res.FrameF1, res.Accuracy, res.MeanF1 = evaluate(p.v, p.outputs, len(p.outputs))
	return res
}

// evaluate scores the first `published` outputs against ground truth — the
// standard evaluation both schedules report. Unpublished frames score zero.
func evaluate(v *video.Video, outputs []core.FrameOutput, published int) (frameF1 []float64, accuracy, meanF1 float64) {
	frameF1 = make([]float64, len(outputs))
	for i := 0; i < published; i++ {
		frameF1[i] = metrics.FrameF1(outputs[i].Detections, v.Truth(i), metrics.DefaultIoU)
	}
	return frameF1, metrics.VideoAccuracy(frameF1, metrics.DefaultAlpha), metrics.Mean(frameF1)
}

// scaleDur scales an emulated duration to wall time.
func scaleDur(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// sleepScaled sleeps d scaled by the configured time scale.
func sleepScaled(d time.Duration, scale float64) {
	if scaled := scaleDur(d, scale); scaled > 0 {
		time.Sleep(scaled)
	}
}

// sleepCtx sleeps for d or until ctx is cancelled, reporting whether the
// full duration elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
