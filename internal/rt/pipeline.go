package rt

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/fault"
	"adavp/internal/imgproc"
	"adavp/internal/obs"
	"adavp/internal/rng"
	"adavp/internal/trace"
	"adavp/internal/track"
	"adavp/internal/video"
)

// This file is the cross-frame staged pipeline: the per-frame loop of the
// pixel pipeline (render → detect/track → publish) restructured into
// overlapped stages with a hard determinism guarantee.
//
//	prefetch ──filled ring──▶ process (in frame order) ──▶ publish (in frame order)
//
// The prefetch stage computes everything about frame t+1..t+depth-1 that
// depends only on the frame itself — the rendered raster, its image pyramid
// and, on calibration frames, the setting-scaled detector input — while the
// process stage runs the detector (whose emulated GPU time is a scaled
// sleep, exactly as in the live pipeline) and the tracker on frame t. The
// process stage consumes prefetched slots strictly in frame index order and
// publishes each output before touching the next frame, so per-stream result
// order is preserved by construction, and every stateful computation
// (detector scratch reuse, tracker feature state, pyramid double-buffering)
// happens in the same order, on the same values, as a sequential run. Depth
// 1 *is* the sequential run: the prefetch work executes inline between
// publishes, no goroutine, no reordering — which is what the depth-parity
// tests pin the overlapped path against, byte for byte.
//
// Every ring slot owns one frame pyramid between frames, the level-0 raster
// included: the prefetcher renders frame i into that raster and rebuilds the
// levels above it in place, the processor trades the pyramid with the tracker
// at Init/Step (the tracker keeps the new frame's pyramid as its reference
// and gives back the one it no longer needs) and puts the traded pyramid back
// before returning the slot's reuse token. Nothing circulates, so there is
// nothing for a cancellation path to hand back: memory is bounded at depth
// slot pyramids plus the tracker's reference, and after any shutdown every
// slot holds its pyramid (stagedRing.audit).
//
// Adaptive runs (Adaptation set) add one wrinkle: the prefetched detector
// input is only valid for the setting it was rendered at. The prefetcher
// keys each raster by the setting it read from the shared setting cell; when
// the processor's calibration decision has moved the setting on since then,
// the stale raster is cancelled and refilled inline at the live setting
// before the detector runs. Either way the detector consumes a raster that
// is a pure function of (frame, live setting), which is what makes the
// adaptive trace byte-identical at every depth.

// PipelineConfig parameterizes a staged deterministic run.
type PipelineConfig struct {
	// Setting is the DNN setting: fixed for the whole run, or the starting
	// setting when Adaptation is set. Default: Setting512.
	Setting core.Setting
	// Depth is the number of frames in flight: 1 runs the sequential
	// reference path, 2-3 overlap prefetch with detect/track. Default: 1.
	Depth int
	// DetectEvery runs the detector on every k-th frame (the calibration
	// cadence); other frames are tracked. Default: 8.
	DetectEvery int
	// TimeScale scales the emulated detector latency, exactly as in the
	// live Config. Default: 0.02.
	TimeScale float64
	// Seed derives detector latency jitter. Latencies never affect outputs.
	Seed uint64
	// Detector overrides the default pixel blob detector.
	Detector interface {
		Detect(f core.Frame, s core.Setting) []core.Detection
	}
	// Adaptation, when set, makes the staged run adaptive: at every
	// calibration frame after the first, the model picks the next setting
	// from the mean tracker velocity of the cycle just ended. Velocity
	// samples accumulate in frame order, so the decision sequence — and
	// therefore the per-frame settings in the trace — is independent of
	// Depth.
	Adaptation *adapt.Model
	// Fault, when set, wraps the detector in the profile's deterministic
	// injection schedule (virtual mode: timing faults manifest as lost
	// results, no wall-clock). A faulted calibration holds the previous
	// frame's result and, when Adaptation is set, downgrades one setting
	// step — the staged equivalent of the live guard's fallback.
	Fault *fault.Profile
	// Obs, when set, receives the frames-in-flight gauge, the prefetch/
	// detect/track/publish stage histograms, the cross-frame overlap
	// histogram and the stale-prefetch cancel/refill counters. Nil disables
	// publishing.
	Obs *obs.Registry
	// StreamID labels published series with stream=<id>.
	StreamID string
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Setting == core.SettingInvalid {
		c.Setting = core.Setting512
	}
	if c.Depth < 1 {
		c.Depth = 1
	}
	if c.DetectEvery < 1 {
		c.DetectEvery = 8
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 0.02
	}
	return c
}

// PipelineResult is the outcome of a staged run.
type PipelineResult struct {
	// Outputs holds one entry per frame, in frame order — bitwise
	// independent of Depth and of the kernel worker count.
	Outputs []core.FrameOutput
	// FrameF1 and the aggregates are the standard evaluation.
	FrameF1  []float64
	Accuracy float64
	MeanF1   float64
	// Published counts frames that completed before a cancellation;
	// Partial marks a run cut short (Outputs beyond Published are zero).
	Published int
	Partial   bool
	// Elapsed is the wall-clock processing time (throughput denominator).
	Elapsed time.Duration
	// Switches counts applied adaptation decisions (from != to); zero
	// without Adaptation. Downgrades counts fault-driven setting drops, a
	// subset of neither — they bypass the model. Both are depth-independent.
	Switches   int
	Downgrades int
	// StaleRefills counts prefetched detector inputs cancelled because the
	// setting moved on before the frame reached the detector, then refilled
	// inline. Deterministic at depth 1 (exactly one per applied switch);
	// timing-dependent at depth>1, where the prefetcher may or may not have
	// observed the new setting — the trace bytes never depend on it.
	StaleRefills int
	// pyramidsFree / pyramidsTotal audit the ownership protocol: after
	// shutdown every ring slot must hold its pyramid (pyramidsFree ==
	// pyramidsTotal == Depth), cancelled or not. The conservation regression
	// test reads these.
	pyramidsFree  int
	pyramidsTotal int
}

// pipeSlot is one in-flight frame parked between prefetch and process.
type pipeSlot struct {
	frame core.Frame
	// pyr is the slot's pyramid, rebuilt for frame. It is nil only while the
	// processor has it out on trade with the tracker (take … release).
	pyr *imgproc.Pyramid
	// detIn is the slot's dedicated detector-input raster; detPrepared marks
	// it rendered for this frame at detSetting. Slot-owned like pyr: the
	// prefetcher and the processor run on different goroutines, and the ring
	// token protocol — not a lock — is what serializes access to the slot.
	detIn       *imgproc.Gray
	detPrepared bool
	detSetting  core.Setting
	t0, t1      time.Time // prefetch interval, for the overlap histogram
}

// take hands the slot's pyramid to the processor for the trade.
func (s *pipeSlot) take() *imgproc.Pyramid {
	pyr := s.pyr
	s.pyr = nil
	return pyr
}

// stagedRing owns the prefetch→process hand-off: depth slots, each with its
// own pyramid and detector-input raster, filled strictly in frame order by
// build. At depth > 1 a prefetcher goroutine fills them ahead of the
// processor; the reuse tokens bound it: it may overwrite slot i%depth only
// after the processor released the slot's previous occupant. Depth 1 is the
// same ring with one slot that next fills inline on the calling goroutine —
// the sequential reference the parity tests compare against.
type stagedRing struct {
	ring  []pipeSlot
	build func(i int, slot *pipeSlot)
	// Nil at depth 1, which has no prefetcher to talk to.
	filled chan int
	tokens chan struct{}
	done   chan struct{}
}

func newStagedRing(ctx context.Context, depth, n int, build func(i int, slot *pipeSlot)) *stagedRing {
	r := &stagedRing{ring: make([]pipeSlot, depth), build: build}
	for i := range r.ring {
		r.ring[i].pyr = &imgproc.Pyramid{}
		r.ring[i].detIn = &imgproc.Gray{}
	}
	if depth == 1 {
		return r
	}
	r.filled = make(chan int, depth)
	r.tokens = make(chan struct{}, depth)
	r.done = make(chan struct{})
	for i := 0; i < depth; i++ {
		r.tokens <- struct{}{}
	}
	go func() {
		defer close(r.done)
		defer close(r.filled)
		for i := 0; i < n; i++ {
			select {
			case <-r.tokens:
			case <-ctx.Done():
				return
			}
			build(i, &r.ring[i%depth])
			select {
			case r.filled <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	return r
}

// next returns the slot holding frame i, which must be requested in order;
// ok is false when the run was cancelled before the frame was built.
func (r *stagedRing) next(i int) (*pipeSlot, bool) {
	slot := &r.ring[i%len(r.ring)]
	if r.filled == nil {
		r.build(i, slot)
		return slot, true
	}
	idx, ok := <-r.filled
	if !ok {
		return nil, false
	}
	if idx != i {
		// The prefetcher walks i in order and the ring is sized to depth, so
		// this cannot happen; a reorder bug must fail loudly rather than
		// publish out of order.
		panic(fmt.Sprintf("rt: pipeline reorder violation: got frame %d, want %d", idx, i))
	}
	return slot, true
}

// release ends the processor's use of a slot: traded — what the tracker gave
// back for the slot's pyramid — becomes the slot's pyramid, then the reuse
// token lets the prefetcher rebuild it. On the very first init the tracker
// keeps the prefetched pyramid and has nothing to trade; the slot gets a
// fresh one, the run's only allocation past the ring.
func (r *stagedRing) release(slot *pipeSlot, traded *imgproc.Pyramid) {
	if traded == nil {
		traded = &imgproc.Pyramid{}
	}
	slot.pyr = traded
	if r.tokens != nil {
		r.tokens <- struct{}{} // never blocks: capacity covers every slot
	}
}

// audit waits for the prefetcher to exit and counts the slots holding their
// pyramid — the conservation audit: this equals the slot count on every
// shutdown path, cancelled or clean.
func (r *stagedRing) audit() (held, total int) {
	if r.done != nil {
		<-r.done
	}
	for i := range r.ring {
		if r.ring[i].pyr != nil {
			held++
		}
	}
	return held, len(r.ring)
}

// preparedProxy routes Detect calls through the blob detector's prepared-
// input path. The single-threaded process stage stores the raster staged for
// the imminent call in input just before calling; interposed wrappers (fault
// injection) forward Detect without knowing about preparation.
type preparedProxy struct {
	blob  *detect.BlobDetector
	input *imgproc.Gray
}

func (p *preparedProxy) Detect(f core.Frame, s core.Setting) []core.Detection {
	return p.blob.DetectPrepared(f, s, p.input)
}

// stagedRun is the state of one RunPipelined call.
type stagedRun struct {
	v   *video.Video
	cfg PipelineConfig
	res *PipelineResult
	// The detector call path: det is the configured detector, reached through
	// proxy (prepared inputs) when it is the blob detector and through fdet
	// (the deterministic fault schedule) when one is configured.
	det   detect.Detector
	proxy *preparedProxy
	fdet  *fault.Detector
	tr    *track.PixelTracker
	lat   *core.LatencyModel
	start time.Time

	// setting is the live setting. The processor owns writes (calibration
	// decisions, fault downgrades); the prefetcher reads it to key the
	// detector inputs it renders ahead. A read racing a switch at worst
	// yields a stale raster, which the processor cancels and refills — never
	// a wrong output.
	setting atomic.Int64
	// velSum/velN is the tracker velocity window since the last calibration.
	velSum float64
	velN   int

	scratch imgproc.Scratch // prefetch-side pyramid temporaries

	stream       []obs.Label
	inflight     *obs.Gauge
	prefetchHist *obs.Histogram
	trackHist    *obs.Histogram
	publishHist  *obs.Histogram
	overlapHist  *obs.Histogram
	staleCtr     *obs.Counter
	refillCtr    *obs.Counter
}

func newStagedRun(v *video.Video, cfg PipelineConfig) *stagedRun {
	ls := streamLabels(cfg.StreamID)
	r := &stagedRun{
		v:   v,
		cfg: cfg,
		res: &PipelineResult{Outputs: make([]core.FrameOutput, v.NumFrames())},
		det: cfg.Detector,
		tr:  track.NewPixelTracker(),
		lat: core.NewLatencyModel(rng.New(cfg.Seed).DeriveString("rt-pipeline-detector")),

		stream:       ls,
		inflight:     cfg.Obs.Gauge(obs.MetricFramesInFlight, ls...),
		prefetchHist: cfg.Obs.StageHistogram(obs.StagePrefetch, ls...),
		trackHist:    cfg.Obs.StageHistogram(obs.StageTrack, ls...),
		publishHist:  cfg.Obs.StageHistogram(obs.StagePublish, ls...),
		overlapHist:  cfg.Obs.Histogram(obs.MetricStageOverlap, obs.DefLatencyBuckets, ls...),
		staleCtr:     cfg.Obs.Counter(obs.MetricPrefetchStale, ls...),
		refillCtr:    cfg.Obs.Counter(obs.MetricPrefetchRefill, ls...),
	}
	r.setting.Store(int64(cfg.Setting))
	if r.det == nil {
		r.det = detect.NewBlobDetector()
	}
	if blob, ok := r.det.(*detect.BlobDetector); ok {
		r.proxy = &preparedProxy{blob: blob}
		r.det = r.proxy
	}
	if cfg.Fault != nil {
		r.fdet = fault.NewDetector(r.det, *cfg.Fault, fault.Virtual)
		r.det = r.fdet
	}
	return r
}

// live returns the live setting.
func (r *stagedRun) live() core.Setting { return core.Setting(r.setting.Load()) }

// detect calls the detector on the slot's frame; faulted reports an injected
// fault.
func (r *stagedRun) detect(slot *pipeSlot, s core.Setting) (dets []core.Detection, faulted bool) {
	if r.proxy != nil {
		r.proxy.input = r.preparedInput(slot, s)
	}
	if r.fdet == nil {
		return r.det.Detect(slot.frame, s), false
	}
	before := len(r.fdet.Events())
	dets = r.fdet.Detect(slot.frame, s)
	return dets, len(r.fdet.Events()) > before
}

// prefetch computes everything about frame i that depends only on the frame
// itself — raster, pyramid and, on calibration frames, the detector input at
// the setting currently in the cell — into slot.
func (r *stagedRun) prefetch(i int, slot *pipeSlot) {
	t0 := time.Now()
	f := r.v.Frame(i)
	// The slot owns its pyramid, level 0 included: whichever frame's raster
	// the pyramid last carried is dead by now, so the new frame renders over
	// it. Only a pyramid that has never been built has none.
	if lv := slot.pyr.Levels; len(lv) > 0 {
		f.Pixels = lv[0]
	} else {
		f.Pixels = imgproc.NewGray(r.v.Params.W, r.v.Params.H)
	}
	r.v.RenderInto(i, f.Pixels)
	slot.pyr.Rebuild(f.Pixels, r.tr.PyramidLevels, &r.scratch)
	slot.frame = f
	slot.detPrepared = false
	slot.detSetting = core.SettingInvalid
	if r.proxy != nil && i%r.cfg.DetectEvery == 0 {
		// The setting-dependent half of prefetch: the raster is keyed by
		// the setting it was rendered at, and the processor cancels it if
		// the calibration decisions moved the setting on in the meantime.
		slot.detSetting = r.live()
		slot.detPrepared = r.proxy.blob.PrepareInput(f, slot.detSetting, slot.detIn)
	}
	slot.t0, slot.t1 = t0, time.Now()
	r.prefetchHist.ObserveDuration(slot.t1.Sub(t0))
}

// adaptSetting is the calibration decision from the velocity window of the
// cycle just ended — samples accumulate in frame order, so the decision
// sequence is depth-independent.
func (r *stagedRun) adaptSetting() {
	vel := math.NaN()
	if r.velN > 0 {
		vel = r.velSum / float64(r.velN)
	}
	r.velSum, r.velN = 0, 0
	a0 := time.Now()
	cur := r.live()
	next := r.cfg.Adaptation.Next(cur, vel)
	adapt.PublishDecision(r.cfg.Obs, cur, next, vel, time.Since(a0), time.Since(r.start), r.stream...)
	if next != cur {
		r.setting.Store(int64(next))
		r.res.Switches++
		sleepScaled(r.lat.SettingSwitch(), r.cfg.TimeScale)
	}
}

// preparedInput returns the slot's detector-input raster for setting s, or
// nil when the blob detector must prepare its own. Cancel-and-refill: a
// raster rendered for a setting the decisions have since abandoned is rebuilt
// inline at the live setting — same pure function, later input — so the
// detector never sees a stale-keyed raster.
func (r *stagedRun) preparedInput(slot *pipeSlot, s core.Setting) *imgproc.Gray {
	if slot.detSetting != s {
		if slot.detPrepared {
			r.staleCtr.Inc()
			r.res.StaleRefills++
		}
		slot.detPrepared = r.proxy.blob.PrepareInput(slot.frame, s, slot.detIn)
		slot.detSetting = s
		if slot.detPrepared {
			r.refillCtr.Inc()
		}
	}
	if !slot.detPrepared {
		return nil
	}
	return slot.detIn
}

// calibrate processes calibration frame i: decide the setting, detect,
// re-initialize the tracker on the slot's pyramid. It returns the frame's
// output and the pyramid to put back in the slot.
func (r *stagedRun) calibrate(i int, slot *pipeSlot, proc0 time.Time) (core.FrameOutput, *imgproc.Pyramid) {
	if r.cfg.Adaptation != nil && i > 0 {
		r.adaptSetting()
	}
	setting := r.live()
	dets, faulted := r.detect(slot, setting)
	// The emulated GPU phase: the CPU is parked here, which is exactly the
	// slack the prefetch stage fills.
	sleepScaled(r.lat.Detect(setting), r.cfg.TimeScale)
	out := core.FrameOutput{FrameIndex: i, Source: core.SourceDetector, Setting: setting}
	traded := slot.take()
	if faulted {
		// Lost calibration: hold the previous frame's result, leave the
		// tracker on its old reference, and (adaptive runs) drop one setting
		// step — cheaper frames make the next attempt likelier to land.
		out.Source = core.SourceHeld
		if i > 0 {
			out.Detections = r.res.Outputs[i-1].Detections
		}
		if smaller, ok := core.NextSmaller(setting); ok && r.cfg.Adaptation != nil {
			adapt.PublishDecision(r.cfg.Obs, setting, smaller, math.NaN(), 0, time.Since(r.start), r.stream...)
			r.setting.Store(int64(smaller))
			r.res.Downgrades++
		}
	} else {
		out.Detections = detect.Sanitize(dets)
		_, traded = r.tr.InitWithPyramid(slot.frame, out.Detections, traded)
	}
	ls := append([]obs.Label{obs.L("setting", r.live().String())}, r.stream...)
	r.cfg.Obs.StageHistogram(obs.StageDetect, ls...).ObserveDuration(time.Since(proc0))
	return out, traded
}

// track processes tracked frame i: step the tracker onto the slot's pyramid
// and bank the velocity sample for the next calibration decision.
func (r *stagedRun) track(i int, slot *pipeSlot, proc0 time.Time) (core.FrameOutput, *imgproc.Pyramid) {
	dets, vel, traded := r.tr.StepWithPyramid(slot.frame, slot.take())
	if track.ValidVelocity(vel) {
		r.velSum += vel
		r.velN++
	}
	dets = detect.Sanitize(dets)
	r.trackHist.ObserveDuration(time.Since(proc0))
	return core.FrameOutput{FrameIndex: i, Source: core.SourceTracker, Setting: r.live(), Detections: dets}, traded
}

// publish stores frame i's output; the in-flight gauge reads the frames
// certainly issued to prefetch by now (everything up to i plus the slots
// ahead, capped at the end of the video) and not yet published.
func (r *stagedRun) publish(i int, out core.FrameOutput) {
	pub0 := time.Now()
	r.res.Outputs[i] = out
	r.res.Published = i + 1
	r.inflight.Set(float64(min(i+r.cfg.Depth, len(r.res.Outputs)) - r.res.Published))
	r.publishHist.ObserveDuration(time.Since(pub0))
}

// RunPipelined executes the staged pipeline over every frame of v. The
// returned outputs are bitwise-identical at any Depth and worker count —
// with Adaptation set, that includes the per-frame setting sequence the
// calibration decisions produce; only wall time changes. On ctx cancellation
// it returns the partial result alongside the error.
func RunPipelined(ctx context.Context, v *video.Video, cfg PipelineConfig) (*PipelineResult, error) {
	cfg = cfg.withDefaults()
	if v == nil || v.NumFrames() == 0 {
		return nil, fmt.Errorf("rt: empty video")
	}
	n := v.NumFrames()
	r := newStagedRun(v, cfg)
	res := r.res
	r.start = time.Now()
	ring := newStagedRing(ctx, cfg.Depth, n, r.prefetch)

	// Process + publish, strictly in frame order. The previous frame's
	// processing interval is what the next slot's prefetch can have
	// overlapped with.
	var prevProc0, prevProc1 time.Time
	for i := 0; i < n && ctx.Err() == nil; i++ {
		slot, ok := ring.next(i)
		if !ok {
			break
		}
		proc0 := time.Now()
		var out core.FrameOutput
		var traded *imgproc.Pyramid
		if i%cfg.DetectEvery == 0 {
			out, traded = r.calibrate(i, slot, proc0)
		} else {
			out, traded = r.track(i, slot, proc0)
		}
		slotT0, slotT1 := slot.t0, slot.t1
		ring.release(slot, traded)
		r.publish(i, out)
		// Realized overlap: the part of this slot's prefetch that ran while
		// the previous frame was being processed. Zero by construction when
		// the slot was filled inline.
		if !prevProc0.IsZero() {
			r.overlapHist.Observe(intervalOverlap(slotT0, slotT1, prevProc0, prevProc1).Seconds())
		}
		prevProc0, prevProc1 = proc0, time.Now()
	}
	res.pyramidsFree, res.pyramidsTotal = ring.audit()
	res.Elapsed = time.Since(r.start)
	r.inflight.Set(0)

	res.FrameF1, res.Accuracy, res.MeanF1 = evaluate(v, res.Outputs, res.Published)
	if ctx.Err() != nil {
		res.Partial = true
		return res, fmt.Errorf("rt: pipelined run cancelled: %w", ctx.Err())
	}
	return res, nil
}

// TraceRun converts a completed pipelined result into the trace schema, the
// byte-stable serialization the depth-parity tests compare. Wall-clock
// fields are deliberately absent: the record is a pure function of the
// outputs.
func (r *PipelineResult) TraceRun(videoName, policy string) *trace.Run {
	return &trace.Run{
		Video:   videoName,
		Policy:  policy,
		Outputs: r.Outputs,
		FrameF1: r.FrameF1,
	}
}

// intervalOverlap returns the length of the intersection of [a0,a1] and
// [b0,b1], floored at zero.
func intervalOverlap(a0, a1, b0, b1 time.Time) time.Duration {
	lo, hi := max(0, b0.Sub(a0)), min(a1.Sub(a0), b1.Sub(a0))
	return max(0, hi-lo)
}
