package rt

import (
	"context"
	"fmt"
	"math"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/imgproc"
	"adavp/internal/par"
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
// The prefetch stage computes only what depends on the frame index — the
// rendered raster of frame t+1..t+depth-1 and its image pyramid — while the
// process stage runs the detector (whose emulated GPU time is a scaled sleep,
// exactly as in the live pipeline) and the tracker on frame t. The process
// stage consumes prefetched slots strictly in frame index order and publishes
// each output before touching the next frame, so per-stream result order is
// preserved by construction, and every stateful computation (detector
// scratch reuse, tracker feature state, pyramid double-buffering) happens in
// the same order, on the same values, as a sequential run. Depth 1 *is* the
// sequential run: the prefetch work executes inline between publishes, no
// goroutine, no reordering — which is what the depth-parity tests pin the
// overlapped path against, byte for byte.
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
// The setting-scaled detector input is not prefetched. An adaptive run
// decides the setting at calibration time, from the velocity the tracker has
// just measured, so nothing built ahead of that decision may depend on it:
// the detector resizes inline on the processor, and the live setting is a
// plain field that only the processor touches.

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
	// Adaptation, when set, makes the staged run adaptive: at every
	// calibration frame after the first, the model picks the next setting
	// from the mean tracker velocity of the cycle just ended. Velocity
	// samples accumulate in frame order, so the decision sequence — and
	// therefore the per-frame settings in the trace — is independent of
	// Depth.
	Adaptation *adapt.Model
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
	// without Adaptation. Depth-independent.
	Switches int
	// StaleRefills is always zero: the prefetch builds nothing that depends
	// on the setting, so nothing goes stale. It remains only because bench/
	// still reports it.
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
}

// take hands the slot's pyramid to the processor for the trade.
func (s *pipeSlot) take() *imgproc.Pyramid {
	pyr := s.pyr
	s.pyr = nil
	return pyr
}

// stagedRing owns the prefetch→process hand-off: depth slots, each with its
// own pyramid, allocated once and filled strictly in order by build during a
// pass (arm … audit) — one per RunPipelined run, one per Run tracker cycle.
// At depth > 1 a prefetcher goroutine fills them ahead of the processor; the
// reuse tokens bound it: it may overwrite slot i%depth only after the
// processor released the slot's previous occupant. Depth 1 is the same ring
// with one slot that next fills inline on the calling goroutine — the
// sequential reference the parity tests compare against.
type stagedRing struct {
	ring  []pipeSlot
	build func(i int, slot *pipeSlot)
	// Nil at depth 1 (no prefetcher); all but tokens belong to the pass.
	tokens chan struct{}
	filled chan int
	done   chan struct{}
	stop   context.CancelFunc
}

func newStagedRing(depth int, build func(i int, slot *pipeSlot)) *stagedRing {
	r := &stagedRing{ring: make([]pipeSlot, depth), build: build}
	for i := range r.ring {
		r.ring[i].pyr = &imgproc.Pyramid{}
	}
	if depth > 1 {
		r.tokens = make(chan struct{}, depth)
	}
	return r
}

// arm starts a pass over items 0..n-1. At depth > 1 it refills the tokens
// the joined previous pass kept and starts the prefetcher.
func (r *stagedRing) arm(ctx context.Context, n int) {
	if r.tokens == nil {
		return
	}
	for len(r.tokens) < cap(r.tokens) {
		r.tokens <- struct{}{}
	}
	ctx, r.stop = context.WithCancel(ctx)
	r.filled = make(chan int, len(r.ring))
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		defer close(r.filled)
		for i := 0; i < n; i++ {
			select {
			case <-r.tokens:
			case <-ctx.Done():
				return
			}
			r.build(i, &r.ring[i%len(r.ring)])
			select {
			case r.filled <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
}

// next returns the slot holding frame i, which must be requested in order;
// ok is false when the run was cancelled before the frame was built.
func (r *stagedRing) next(i int) (*pipeSlot, bool) {
	slot := &r.ring[i%len(r.ring)]
	if r.tokens == nil {
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

// audit ends the pass — it stops and joins the prefetcher, at most one build
// in flight — and counts the slots holding their pyramid: the conservation
// audit, equal to the slot count on every shutdown path, cancelled or clean.
func (r *stagedRing) audit() (held, total int) {
	if r.done != nil {
		r.stop()
		<-r.done
	}
	for i := range r.ring {
		if r.ring[i].pyr != nil {
			held++
		}
	}
	return held, len(r.ring)
}

// stagedRun is the state of one RunPipelined call.
type stagedRun struct {
	v   *video.Video
	cfg PipelineConfig
	res *PipelineResult
	det *detect.BlobDetector
	tr  *track.PixelTracker
	lat *core.LatencyModel

	// setting is the live setting, read and written by the processor only.
	setting core.Setting
	// velSum/velN is the tracker velocity window since the last calibration.
	velSum float64
	velN   int

	scratch imgproc.Scratch // prefetch-side pyramid temporaries
}

func newStagedRun(v *video.Video, cfg PipelineConfig) *stagedRun {
	return &stagedRun{
		v:       v,
		cfg:     cfg,
		res:     &PipelineResult{Outputs: make([]core.FrameOutput, v.NumFrames())},
		det:     detect.NewBlobDetector(),
		tr:      track.NewPixelTracker(),
		lat:     core.NewLatencyModel(rng.New(cfg.Seed).DeriveString("rt-pipeline-detector")),
		setting: cfg.Setting,
	}
}

// prefetch computes everything about frame i that depends only on its index
// — raster and pyramid — into slot.
func (r *stagedRun) prefetch(i int, slot *pipeSlot) {
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
	if next := r.cfg.Adaptation.Next(r.setting, vel); next != r.setting {
		r.setting = next
		r.res.Switches++
		sleepScaled(r.lat.SettingSwitch(), r.cfg.TimeScale)
	}
}

// calibrate processes calibration frame i: decide the setting, detect,
// re-initialize the tracker on the slot's pyramid. It returns the frame's
// output and the pyramid to put back in the slot.
func (r *stagedRun) calibrate(i int, slot *pipeSlot) (core.FrameOutput, *imgproc.Pyramid) {
	if r.cfg.Adaptation != nil && i > 0 {
		r.adaptSetting()
	}
	dets := detect.Sanitize(r.det.Detect(slot.frame, r.setting))
	// The emulated GPU phase: the CPU is parked here, which is exactly the
	// slack the prefetch stage fills.
	sleepScaled(r.lat.Detect(r.setting), r.cfg.TimeScale)
	_, traded := r.tr.InitWithPyramid(slot.frame, dets, slot.take())
	return core.FrameOutput{FrameIndex: i, Source: core.SourceDetector, Setting: r.setting, Detections: dets}, traded
}

// track processes tracked frame i: step the tracker onto the slot's pyramid
// and bank the velocity sample for the next calibration decision.
func (r *stagedRun) track(i int, slot *pipeSlot) (core.FrameOutput, *imgproc.Pyramid) {
	dets, vel, traded := r.tr.StepWithPyramid(slot.frame, slot.take())
	if track.ValidVelocity(vel) {
		r.velSum += vel
		r.velN++
	}
	return core.FrameOutput{FrameIndex: i, Source: core.SourceTracker, Setting: r.setting, Detections: detect.Sanitize(dets)}, traded
}

// RunPipelined executes the staged pipeline over every frame of v. The
// returned outputs are bitwise-identical at any Depth and worker count —
// with Adaptation set, that includes the per-frame setting sequence the
// calibration decisions produce; only wall time changes. On ctx cancellation
// it returns the partial result alongside the error. The run holds par's
// worker gangs (par.Hold) from start to return.
func RunPipelined(ctx context.Context, v *video.Video, cfg PipelineConfig) (*PipelineResult, error) {
	cfg = cfg.withDefaults()
	if v == nil || v.NumFrames() == 0 {
		return nil, fmt.Errorf("rt: empty video")
	}
	defer par.Hold()()
	n := v.NumFrames()
	r := newStagedRun(v, cfg)
	res := r.res
	start := time.Now()
	ring := newStagedRing(cfg.Depth, r.prefetch)
	ring.arm(ctx, n)

	// Process + publish, strictly in frame order.
	for i := 0; i < n && ctx.Err() == nil; i++ {
		slot, ok := ring.next(i)
		if !ok {
			break
		}
		var out core.FrameOutput
		var traded *imgproc.Pyramid
		if i%cfg.DetectEvery == 0 {
			out, traded = r.calibrate(i, slot)
		} else {
			out, traded = r.track(i, slot)
		}
		ring.release(slot, traded)
		res.Outputs[i] = out
		res.Published = i + 1
	}
	res.pyramidsFree, res.pyramidsTotal = ring.audit()
	res.Elapsed = time.Since(start)

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
