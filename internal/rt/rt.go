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
//     detections, honoring the tracking-frame selection scheme, and cancels
//     its remaining work after finishing the current task once the detector
//     has fetched a new frame (§IV-B's synchronization rule).
//
// Shared data (detection results, display outputs) is guarded by a mutex and
// atomics; cross-thread signalling is the generation counter plus a channel
// for the detection hand-off, mirroring the paper's "lock + event" design.
// The package is exercised under the race detector.
//
// Two schedules run over these parts: Run is the camera-paced, frame-dropping
// MPDT above; RunPipelined (pipeline.go) processes every frame at a fixed
// cadence, byte-deterministic at any depth. Merging the loops would make each
// shared step branch on its caller; everything under them exists once.
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
	"math"
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
	// Detector overrides the default calibrated detector.
	Detector detect.Detector
	// NewTracker overrides the default tracker factory.
	NewTracker func(seed uint64) track.Tracker
	// TimeScale scales all emulated latencies and the camera interval.
	// 1.0 is real time; 0.02 runs fifty times faster. Default: 0.02.
	TimeScale float64
	// Seed derives detector noise and latency jitter.
	Seed uint64
	// PixelMode renders frames for pixel-based detectors/trackers.
	PixelMode bool
	// Fault, when set, wraps the detector and tracker with the profile's
	// deterministic fault schedule (internal/fault, Live mode).
	Fault *fault.Profile
	// Guard tunes the supervision layer; the zero value takes the
	// documented defaults.
	Guard guard.Config
	// Workers sets the pixel-kernel worker pool size for this process
	// (0 keeps the current setting, default NumCPU). Worker count never
	// changes results, only wall time (see internal/par).
	Workers int
	// Obs, when set, receives live telemetry under the shared schema:
	// per-stage wall-clock latency histograms (detect labeled with the model
	// setting and the supervisor's health at observation time), frame/cycle/
	// switch counters, the velocity gauge, guard health and events, and
	// injected-fault counts. It is also handed to the supervisor unless
	// Guard.Obs is already set. Nil disables publishing.
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
	// PipelineDepth, when >1 in pixel mode, runs the staged frame-prefetch
	// ahead of the detector/tracker threads: up to PipelineDepth upcoming
	// frames are rendered (raster only — a pure function of the frame index)
	// while the stream is blocked elsewhere, most importantly inside
	// Slots.Acquire. A stream queueing for a shared detector slot keeps its
	// prefetch stage running, so another stream's detect sleep overlaps with
	// this stream's renders. Behavior-neutral by construction: consumers that
	// miss the cache render inline, and the prefetcher never touches the slot
	// pool, so grant order is exactly as without it. Depth ≤ 1 disables.
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
	// serve.FairnessBound by the chaos soak.
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
	// PrefetchedWhileWaiting counts frames whose prefetch completed while
	// this stream was blocked in slot acquisition — the overlap the serve
	// pipeline buys. Always zero when Config.PipelineDepth ≤ 1.
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

// framePrefetcher is the serve-path prefetch stage: a single goroutine that
// follows the camera cursor and renders the next PipelineDepth frames ahead
// of it into a bounded cache, so the detector and tracker threads fetch warm
// rasters instead of rendering on their critical path. The rendered frame is
// a pure function of its index, so a cache hit and an inline render are
// interchangeable — the stage is behavior-neutral and needs no draining on
// shutdown beyond its goroutine exiting with the camera.
//
// Its reason to exist is the blocked-stream overlap: while the detector loop
// is parked inside DetectorSlots.Acquire waiting for a shared slot, the
// prefetcher keeps rendering — another stream's emulated detect sleep is this
// stream's pyramid-and-raster budget. The waiting flag brackets exactly that
// window, and the accounting (frames completed inside it, cache population
// while it is up) feeds the serve observability.
type framePrefetcher struct {
	v     *video.Video
	depth int

	mu    sync.Mutex
	cache map[int]core.Frame

	waiting     atomic.Bool
	builtWhile  atomic.Int64 // frames whose render completed while waiting
	inflightG   *obs.Gauge
	prefetchedC *obs.Counter
}

func newFramePrefetcher(v *video.Video, depth int, reg *obs.Registry, labels []obs.Label) *framePrefetcher {
	return &framePrefetcher{
		v:           v,
		depth:       depth,
		cache:       make(map[int]core.Frame, 2*depth),
		inflightG:   reg.Gauge(obs.MetricFramesInFlightWaiting, labels...),
		prefetchedC: reg.Counter(obs.MetricPrefetchedWaiting, labels...),
	}
}

// run follows the camera: each time a newer frame is captured, render up to
// depth frames ahead of it. Exits when the camera has nothing newer to wait
// for (last frame captured or run cancelled — the camera observes ctx).
func (pf *framePrefetcher) run(cam camera) {
	n := pf.v.NumFrames()
	cursor := -1
	rendered := -1
	for {
		latest, ok := cam.waitNewer(cursor)
		if !ok {
			return
		}
		cursor = latest
		for i := latest + 1; i <= latest+pf.depth && i < n; i++ {
			if i <= rendered {
				continue
			}
			f := pf.v.FrameWithPixels(i)
			rendered = i
			pf.mu.Lock()
			pf.cache[i] = f
			for k := range pf.cache {
				if k <= i-2*pf.depth {
					delete(pf.cache, k)
				}
			}
			held := len(pf.cache)
			pf.mu.Unlock()
			if pf.waiting.Load() {
				// This render landed while the stream was queueing for a
				// detector slot: banked work, the whole point of the stage.
				pf.builtWhile.Add(1)
				pf.prefetchedC.Inc()
				pf.inflightG.Set(float64(held))
			}
		}
	}
}

// get returns the cached frame for index i, if the prefetcher got there.
func (pf *framePrefetcher) get(i int) (core.Frame, bool) {
	pf.mu.Lock()
	f, ok := pf.cache[i]
	pf.mu.Unlock()
	return f, ok
}

// setWaiting brackets the detector loop's slot acquisition; leaving the
// window resets the in-flight gauge (the banked frames are being consumed).
func (pf *framePrefetcher) setWaiting(w bool) {
	pf.waiting.Store(w)
	if !w {
		pf.inflightG.Set(0)
	}
}

// cycleWork is one detection hand-off from the detector to the tracker:
// track frames (RefFrame, EndFrame) against RefDets.
type cycleWork struct {
	RefFrame   int
	RefDets    []core.Detection
	EndFrame   int
	Setting    core.Setting
	Generation uint64
}

// streamLabels appends stream=<id> to a series' labels in multi-stream runs.
func streamLabels(id string, ls ...obs.Label) []obs.Label {
	if id == "" {
		return ls
	}
	return append(ls, obs.L("stream", id))
}

// Run executes the live pipeline over a video. It returns when every frame
// has been fed and all in-flight work has drained. When ctx is cancelled
// mid-run it returns the *partial* Result alongside the error, so callers
// can still evaluate the frames that did complete.
func Run(ctx context.Context, v *video.Video, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if v == nil || v.NumFrames() == 0 {
		return nil, fmt.Errorf("rt: empty video")
	}
	if cfg.Guard.Obs == nil {
		// The supervisor publishes its health gauge and fault counters into
		// the run's registry unless the caller routed it elsewhere.
		cfg.Guard.Obs = cfg.Obs
	}
	if cfg.Guard.Stream == "" {
		cfg.Guard.Stream = cfg.StreamID
	}
	if cfg.Workers > 0 {
		par.SetWorkers(cfg.Workers)
	}
	det := cfg.Detector
	if det == nil {
		det = detect.NewSimDetector(cfg.Seed, v.Params.W, v.Params.H)
	}
	var tr track.Tracker
	if cfg.NewTracker != nil {
		tr = cfg.NewTracker(cfg.Seed)
	} else {
		mt := track.NewModelTracker(cfg.Seed)
		mt.SetBounds(v.Bounds())
		tr = mt
	}
	p := &pipeline{
		v:        v,
		cfg:      cfg,
		det:      det,
		tracker:  tr,
		selector: core.NewFrameSelector(),
		sup:      guard.New(cfg.Guard),
		outputs:  make([]core.FrameOutput, v.NumFrames()),
		work:     make(chan cycleWork, 1),
	}
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
	v        *video.Video
	cfg      Config
	det      detect.Detector
	tracker  track.Tracker
	latDet   *core.LatencyModel // detector-thread latency emulation
	latTrk   *core.LatencyModel // tracker-thread latency emulation
	selector *core.FrameSelector
	sup      *guard.Supervisor
	fdet     *fault.Detector // non-nil when a fault profile is injected
	ftrk     *fault.Tracker
	prefetch *framePrefetcher // non-nil when PipelineDepth>1 in pixel mode
	// start is the run's one clock origin: capture times (cam) and every
	// published `at` timestamp are offsets from it.
	start time.Time
	cam   camera

	work chan cycleWork
	// generation counts detector fetches; the tracker cancels its remaining
	// tasks once the detector has moved on (§IV-B).
	generation atomic.Uint64
	// velocityBits shares the tracker's latest cycle velocity (Eq. 3) with
	// the detector thread for model adaptation.
	velocityBits atomic.Uint64

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
}

func (p *pipeline) resolveSeries() {
	reg, ls := p.cfg.Obs, streamLabels(p.cfg.StreamID)
	p.stream = ls
	p.deferredC = reg.Counter(obs.MetricDetectDeferred, ls...)
	p.cyclesC = reg.Counter(obs.MetricCycles, ls...)
	p.slotWaitH = reg.Histogram(obs.MetricSlotWait, obs.DefLatencyBuckets, ls...)
	p.slotExecH = reg.Histogram(obs.MetricSlotExec, obs.DefLatencyBuckets, ls...)
	p.trackH = reg.StageHistogram(obs.StageTrack, ls...)
	p.overlayH = reg.StageHistogram(obs.StageOverlay, ls...)
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

// frame fetches a frame (with pixels only in pixel mode). With the prefetch
// stage running, a warm render is returned as-is; a miss renders inline —
// identical bytes either way, the stage only moves the work off this path.
func (p *pipeline) frame(i int) core.Frame {
	if p.cfg.PixelMode {
		if p.prefetch != nil {
			if f, ok := p.prefetch.get(i); ok {
				return f
			}
		}
		return p.v.FrameWithPixels(i)
	}
	return p.v.Frame(i)
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
	spawn := func(loop func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	// Frame-prefetch stage (serve-path pipelining): renders ahead of the
	// camera cursor so slot-wait time is spent building rasters. It exits
	// with the camera, needing no ctx plumbing of its own.
	if p.cfg.PipelineDepth > 1 && p.cfg.PixelMode {
		p.prefetch = newFramePrefetcher(p.v, p.cfg.PipelineDepth, p.cfg.Obs, p.stream)
		spawn(func() { p.prefetch.run(p.cam) })
	}
	// Object detector thread.
	spawn(func() {
		defer close(p.work)
		p.detectorLoop(ctx)
	})
	// Object tracker thread.
	spawn(func() { p.trackerLoop(ctx) })
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
	gcfg := p.sup.Config()
	return max(scaleDur(p.latDet.DetectBudget(s, gcfg.WatchdogFactor), p.cfg.TimeScale), gcfg.MinDeadline)
}

// superviseDetect runs one detection cycle under supervision: panic
// recovery, watchdog deadline, bounded retries with backoff, and model
// downgrades on repeated faults. ok is false when every attempt failed —
// the caller then keeps the previous calibration on screen. The returned
// setting reflects any downgrade (or post-recovery restore) applied.
func (p *pipeline) superviseDetect(ctx context.Context, frameIdx int, setting core.Setting) ([]core.Detection, core.Setting, bool) {
	cycle := int(p.cycles.Load())
	gcfg := p.sup.Config()
	for attempt := 0; ; attempt++ {
		frame := p.frame(frameIdx)
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
		if attempt >= gcfg.MaxRetries || ctx.Err() != nil {
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
	// prevFrame is the reference frame of the cycle in progress (-1 before
	// the first calibration) and prevDets the detections it is tracked from.
	prevFrame int
	prevDets  []core.Detection
	// lastFetched is the wait cursor: it advances on every fetch, granted or
	// refused, so a refused bootstrap fetch (prevFrame still -1) waits for the
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
	d := &detectorState{setting: p.cfg.Setting, prevFrame: -1, lastFetched: -1}
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
		if d.prevFrame >= 0 {
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
// measured here; the pool itself is clock-free. The prefetch stage keeps
// rendering through the block: the waiting bracket is what attributes its
// completions to the queueing window.
func (p *pipeline) acquireSlot(ctx context.Context, d *detectorState, fetched int) (release func(), frameIdx int, err error) {
	requested := time.Now()
	release, frameIdx, err = func() {}, fetched, ctx.Err()
	if p.cfg.Slots != nil {
		if p.prefetch != nil {
			p.prefetch.setWaiting(true)
		}
		release, err = p.cfg.Slots.Acquire(ctx, p.cfg.StreamID, d.setting, d.lastCalib)
		if p.prefetch != nil {
			p.prefetch.setWaiting(false)
		}
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
	if d.prevFrame < 0 {
		return true
	}
	if !p.handOff(ctx, d, frameIdx, p.generation.Add(1)) {
		return false
	}
	d.prevFrame = frameIdx
	return true
}

// handOff gives the tracker the frames (prevFrame, endFrame) to track against
// the previous calibration. It reports false when the run was cancelled first.
func (p *pipeline) handOff(ctx context.Context, d *detectorState, endFrame int, gen uint64) bool {
	select {
	case p.work <- cycleWork{RefFrame: d.prevFrame, RefDets: d.prevDets, EndFrame: endFrame, Setting: d.setting, Generation: gen}:
		return true
	case <-ctx.Done():
		return false
	}
}

// adaptSetting is the model-adaptation step (§IV-D): the velocity measured
// during the previous cycle picks this cycle's setting, and a switch pays the
// emulated model-load latency.
func (p *pipeline) adaptSetting(cur core.Setting) core.Setting {
	if p.cfg.Adaptation == nil {
		return cur
	}
	vel := math.Float64frombits(p.velocityBits.Load())
	if !track.ValidVelocity(vel) {
		return cur
	}
	next := p.cfg.Adaptation.Next(cur, vel)
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
// attempt faulted, holds the previous one on screen).
func (p *pipeline) calibrate(ctx context.Context, d *detectorState, frameIdx int, granted time.Time, release func()) {
	detStart := time.Now()
	dets, setting, detected := p.superviseDetect(ctx, frameIdx, d.setting)
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
	d.prevFrame = frameIdx
	d.lastFetched = max(d.lastFetched, frameIdx)
}

// trackerLoop is the CPU thread: process each cycle's buffered frames under
// panic supervision, validating every velocity sample before it can reach
// the adaptation model.
func (p *pipeline) trackerLoop(ctx context.Context) {
	for w := range p.work {
		if ctx.Err() != nil {
			return
		}
		buffered := w.EndFrame - 1 - w.RefFrame
		if buffered <= 0 {
			continue
		}
		feStart := time.Now()
		if !p.safeTrack(w.RefFrame, func() { p.tracker.Init(p.frame(w.RefFrame), w.RefDets) }) {
			continue
		}
		p.sleep(p.latTrk.FeatureExtract())
		// Feature extraction is CPU-track work, same as in the simulator's
		// busy log.
		p.trackH.ObserveDuration(time.Since(feStart))

		plan := p.selector.Plan(buffered)
		tracked := 0
		var velSum float64
		var velN int
		cur := w.RefDets
		for _, idx := range plan {
			// §IV-B: cancel after the current task once the detector has
			// fetched a newer frame.
			if p.generation.Load() > w.Generation {
				break
			}
			frameIdx := w.RefFrame + 1 + idx
			stepStart := time.Now()
			var dets []core.Detection
			var vel float64
			if !p.safeTrack(frameIdx, func() { dets, vel = p.tracker.Step(p.frame(frameIdx)) }) {
				// The tracker panicked mid-cycle: hold the last good boxes
				// for this frame and abandon the rest of the cycle — the
				// next detection re-initializes the tracker from scratch.
				p.setOutput(core.FrameOutput{FrameIndex: frameIdx, Source: core.SourceHeld, Setting: w.Setting, Detections: cur})
				tracked++
				break
			}
			dets = detect.Sanitize(dets)
			p.sleep(p.latTrk.TrackFrame(len(cur)))
			p.trackH.ObserveDuration(time.Since(stepStart))
			ovStart := time.Now()
			p.sleep(p.latTrk.Overlay())
			p.setOutput(core.FrameOutput{FrameIndex: frameIdx, Source: core.SourceTracker, Setting: w.Setting, Detections: dets})
			p.overlayH.ObserveDuration(time.Since(ovStart))
			cur = dets
			tracked++
			if track.ValidVelocity(vel) {
				velSum += vel
				velN++
			}
		}
		p.selector.Update(tracked, buffered)
		if velN > 0 {
			if m := velSum / float64(velN); track.ValidVelocity(m) {
				p.velocityBits.Store(math.Float64bits(m))
			}
		}
	}
}

// safeTrack runs one tracker call on the given frame with panic recovery.
func (p *pipeline) safeTrack(frame int, call func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.sup.ObserveFault(guard.ComponentTracker, guard.Panicked, int(p.cycles.Load()), frame, time.Since(p.start))
			ok = false
		}
	}()
	call()
	return true
}

// finish hold-fills unprocessed frames and evaluates the run.
func (p *pipeline) finish() *Result {
	res := &Result{
		Outputs:          p.outputs,
		Cycles:           int(p.cycles.Load()),
		Switches:         int(p.switches.Load()),
		Deferred:         int(p.deferred.Load()),
		MaxCalibAge:      p.maxCalibAge,
		MaxSlotOccupancy: p.maxSlotOcc,
		Health:           p.sup.Health(),
		Faults:           p.sup.Stats(),
		Events:           p.sup.Events(),
	}
	if p.prefetch != nil {
		res.PrefetchedWhileWaiting = int(p.prefetch.builtWhile.Load())
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
				res.Events = append(res.Events, trace.FaultEvent{
					Component: ev.Component, Kind: ev.Kind.String(),
					Action: "injected", Cycle: ev.Call,
				})
				p.cfg.Obs.Counter(obs.MetricFaultsInjected,
					streamLabels(p.cfg.StreamID, obs.L("component", ev.Component), obs.L("kind", ev.Kind.String()))...).Inc()
				component := ev.Component
				if p.cfg.StreamID != "" {
					component += "@" + p.cfg.StreamID
				}
				p.cfg.Obs.Record(time.Since(p.start), component, ev.Kind.String(), "injected")
			}
		}
	}
	holdFill(p.outputs)
	var bySource [core.SourceHeld + 1]int64
	for _, out := range p.outputs {
		bySource[out.Source]++
	}
	for src := core.SourceNone + 1; src <= core.SourceHeld; src++ {
		if n := bySource[src]; n > 0 {
			p.cfg.Obs.Counter(obs.MetricFrames, streamLabels(p.cfg.StreamID, obs.L("source", src.String()))...).Add(n)
		}
	}
	res.FrameF1, res.Accuracy, res.MeanF1 = evaluate(p.v, p.outputs, len(p.outputs))
	return res
}

// holdFill gives every frame nobody processed the result that was on screen
// at the time: the nearest earlier frame's detections, marked SourceHeld.
// Frames before the first result stay SourceNone.
func holdFill(outputs []core.FrameOutput) {
	var last *core.FrameOutput
	for i := range outputs {
		out := &outputs[i]
		out.FrameIndex = i
		if out.Source != core.SourceNone {
			last = out
		} else if last != nil {
			out.Source, out.Setting, out.Detections = core.SourceHeld, last.Setting, last.Detections
		}
	}
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
