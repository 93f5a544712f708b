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
	"adavp/internal/metrics"
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
// Frame pyramids circulate between the stages as values with exactly one
// owner: the prefetcher takes a free pyramid, rebuilds it for frame i, and
// parks it in the slot ring; the tracker takes ownership at Init/Step and
// releases the pyramid it no longer needs back to the free pool. The pool
// size (depth+1) bounds memory: depth frames in flight plus the tracker's
// reference pyramid. Cancellation must not break that conservation — every
// exit path of the prefetcher hands its in-flight pyramid back, and shutdown
// reclaims the pyramids parked in unconsumed ring slots (stagedRing).
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
	// shutdown every circulating pyramid must be back in the free pool
	// (pyramidsFree == pyramidsTotal), cancelled or not. Zero at depth 1,
	// which has no pool. The conservation regression test reads these.
	pyramidsFree  int
	pyramidsTotal int
}

// pipeSlot is one in-flight frame parked between prefetch and process.
type pipeSlot struct {
	frame core.Frame
	pyr   *imgproc.Pyramid
	// detIn is the slot's dedicated detector-input raster; detPrepared marks
	// it rendered for this frame at detSetting. Slot-owned (never pooled):
	// the prefetcher and the processor run on different goroutines, and the
	// ring token protocol — not a lock — is what serializes access to it.
	detIn       *imgproc.Gray
	detPrepared bool
	detSetting  core.Setting
	t0, t1      time.Time // prefetch interval, for the overlap histogram
}

// stagedRing owns the prefetch→process hand-off: the slot ring, the filled
// index channel, the pyramid free pool and the ring-reuse tokens. Exactly
// depth+1 pyramids circulate (depth in flight + the tracker's reference);
// sends into free can therefore never block, and every prefetcher exit path
// returns the pyramid it holds — dropping one on cancellation was the leak
// the conservation audit (reclaim) now pins.
type stagedRing struct {
	depth  int
	ring   []pipeSlot
	filled chan int
	free   chan *imgproc.Pyramid
	slots  chan struct{}
	done   chan struct{}
}

func newStagedRing(depth int) *stagedRing {
	r := &stagedRing{
		depth:  depth,
		ring:   make([]pipeSlot, depth),
		filled: make(chan int, depth),
		// Pyramids bound memory (depth in flight + the tracker's reference);
		// slot tokens bound ring reuse: the prefetcher may overwrite ring
		// slot i%depth only after the processor finished reading the slot's
		// previous occupant. The token return is what sequences that, not
		// the pyramid pool — on the first frames the tracker holds nothing,
		// so pyramid availability alone would let the prefetcher lap the ring.
		free:  make(chan *imgproc.Pyramid, depth+1),
		slots: make(chan struct{}, depth),
		done:  make(chan struct{}),
	}
	for i := 0; i < depth+1; i++ {
		r.free <- &imgproc.Pyramid{}
	}
	for i := 0; i < depth; i++ {
		r.slots <- struct{}{}
	}
	for i := range r.ring {
		r.ring[i].detIn = &imgproc.Gray{}
	}
	return r
}

// start launches the prefetcher: frames 0..n-1 strictly in order, each built
// into its ring slot by the caller's build function once a pyramid and a
// ring token are in hand. Every exit path — cancelled while waiting for a
// token, cancelled while publishing the filled index — returns the in-flight
// pyramid to the free pool first: free has capacity for every circulating
// pyramid, so these sends cannot block, and conservation holds through
// cancellation.
func (r *stagedRing) start(ctx context.Context, n int, build func(i int, pyr *imgproc.Pyramid, slot *pipeSlot)) {
	go func() {
		defer close(r.done)
		defer close(r.filled)
		for i := 0; i < n; i++ {
			var pyr *imgproc.Pyramid
			select {
			case pyr = <-r.free:
			case <-ctx.Done():
				return
			}
			select {
			case <-r.slots:
			case <-ctx.Done():
				r.free <- pyr
				return
			}
			slot := &r.ring[i%r.depth]
			build(i, pyr, slot)
			select {
			case r.filled <- i:
			case <-ctx.Done():
				slot.pyr = nil
				r.free <- pyr
				return
			}
		}
	}()
}

// reclaim waits for the prefetcher to exit, drains the filled indexes the
// processor never consumed, returns their parked pyramids to the free pool,
// and reports the pool population — the conservation audit: with every
// leak fixed this equals depth+1 on every shutdown path, cancelled or clean.
func (r *stagedRing) reclaim() int {
	<-r.done
	for idx := range r.filled {
		slot := &r.ring[idx%r.depth]
		if slot.pyr != nil {
			r.free <- slot.pyr
			slot.pyr = nil
		}
	}
	return len(r.free)
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
	det := cfg.Detector
	var blob *detect.BlobDetector
	if det == nil {
		b := detect.NewBlobDetector()
		blob, det = b, b
	} else if b, ok := det.(*detect.BlobDetector); ok {
		blob = b
	}
	tr := track.NewPixelTracker()
	lat := core.NewLatencyModel(rng.New(cfg.Seed).DeriveString("rt-pipeline-detector"))
	labels := func(ls ...obs.Label) []obs.Label {
		if cfg.StreamID == "" {
			return ls
		}
		return append(ls, obs.L("stream", cfg.StreamID))
	}

	res := &PipelineResult{
		Outputs: make([]core.FrameOutput, n),
		FrameF1: make([]float64, n),
	}
	start := time.Now()

	// The live setting. The processor owns writes (calibration decisions,
	// fault downgrades); the prefetcher reads it to key the detector inputs
	// it renders ahead. A read racing a switch at worst yields a stale
	// raster, which the processor cancels and refills — never a wrong output.
	setting := cfg.Setting
	var settingCell atomic.Int64
	settingCell.Store(int64(setting))

	// The detector call path: prepared-input when the blob detector is in
	// play, wrapped in the deterministic fault schedule when configured.
	var proxy *preparedProxy
	var runDetect func(f core.Frame, s core.Setting, prepared *imgproc.Gray) ([]core.Detection, bool)
	switch {
	case cfg.Fault != nil:
		var inner detect.Detector
		if blob != nil {
			proxy = &preparedProxy{blob: blob}
			inner = proxy
		} else {
			inner = det
		}
		fdet := fault.NewDetector(inner, *cfg.Fault, fault.Virtual)
		runDetect = func(f core.Frame, s core.Setting, prepared *imgproc.Gray) ([]core.Detection, bool) {
			if proxy != nil {
				proxy.input = prepared
			}
			before := len(fdet.Events())
			dets := fdet.Detect(f, s)
			return dets, len(fdet.Events()) > before
		}
	case blob != nil:
		runDetect = func(f core.Frame, s core.Setting, prepared *imgproc.Gray) ([]core.Detection, bool) {
			return blob.DetectPrepared(f, s, prepared), false
		}
	default:
		runDetect = func(f core.Frame, s core.Setting, _ *imgproc.Gray) ([]core.Detection, bool) {
			return det.Detect(f, s), false
		}
	}

	inflight := cfg.Obs.Gauge(obs.MetricFramesInFlight, labels()...)
	prefetchHist := cfg.Obs.StageHistogram(obs.StagePrefetch, labels()...)
	staleCtr := cfg.Obs.Counter(obs.MetricPrefetchStale, labels()...)
	refillCtr := cfg.Obs.Counter(obs.MetricPrefetchRefill, labels()...)
	var scratch imgproc.Scratch
	prefetch := func(i int, pyr *imgproc.Pyramid, slot *pipeSlot) {
		t0 := time.Now()
		f := v.FrameWithPixels(i)
		pyr.Rebuild(f.Pixels, tr.PyramidLevels, &scratch)
		slot.frame = f
		slot.pyr = pyr
		slot.detPrepared = false
		slot.detSetting = core.SettingInvalid
		if blob != nil && i%cfg.DetectEvery == 0 {
			// The setting-dependent half of prefetch: the raster is keyed by
			// the setting it was rendered at, and the processor cancels it if
			// the calibration decisions moved the setting on in the meantime.
			s := core.Setting(settingCell.Load())
			slot.detPrepared = blob.PrepareInput(f, s, slot.detIn)
			slot.detSetting = s
		}
		slot.t0, slot.t1 = t0, time.Now()
		prefetchHist.ObserveDuration(slot.t1.Sub(t0))
	}
	depth := cfg.Depth
	var ring *stagedRing
	var seqSlot pipeSlot
	if depth > 1 {
		ring = newStagedRing(depth)
		res.pyramidsTotal = depth + 1
		ring.start(ctx, n, prefetch)
	} else {
		seqSlot.detIn = &imgproc.Gray{}
	}

	// Process + publish, strictly in frame order. The previous frame's
	// processing interval is what the next slot's prefetch can have
	// overlapped with.
	trackHist := cfg.Obs.StageHistogram(obs.StageTrack, labels()...)
	publishHist := cfg.Obs.StageHistogram(obs.StagePublish, labels()...)
	overlapHist := cfg.Obs.Histogram(obs.MetricStageOverlap, obs.DefLatencyBuckets, labels()...)
	var prevProc0, prevProc1 time.Time
	seqPyr := &imgproc.Pyramid{} // depth-1: the single circulating pyramid
	velSum, velN := 0.0, 0       // tracker velocity window since the last calibration
	cancelled := false
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		var slot *pipeSlot
		if depth > 1 {
			idx, ok := <-ring.filled
			if !ok {
				cancelled = true
				break
			}
			if idx != i {
				// The prefetcher walks i in order and the ring is sized to
				// depth, so this cannot happen; a reorder bug must fail loudly
				// rather than publish out of order.
				panic(fmt.Sprintf("rt: pipeline reorder violation: got frame %d, want %d", idx, i))
			}
			slot = &ring.ring[idx%depth]
		} else {
			slot = &seqSlot
			prefetch(i, seqPyr, slot)
		}
		pyr := slot.pyr
		slot.pyr = nil // consumed: reclaim must not return it twice
		proc0 := time.Now()
		var out core.FrameOutput
		var released *imgproc.Pyramid
		if i%cfg.DetectEvery == 0 {
			if cfg.Adaptation != nil && i > 0 {
				// Calibration decision from the velocity window of the cycle
				// just ended — samples accumulate in frame order, so the
				// decision sequence is depth-independent.
				vel := math.NaN()
				if velN > 0 {
					vel = velSum / float64(velN)
				}
				a0 := time.Now()
				next := cfg.Adaptation.Next(setting, vel)
				adapt.PublishDecision(cfg.Obs, setting, next, vel, time.Since(a0), time.Since(start), labels()...)
				if next != setting {
					setting = next
					settingCell.Store(int64(setting))
					res.Switches++
					sleepScaled(lat.SettingSwitch(), cfg.TimeScale)
				}
				velSum, velN = 0, 0
			}
			if blob != nil && slot.detSetting != setting {
				// Cancel-and-refill: the raster was rendered for a setting
				// the decisions have since abandoned. Rebuild it inline at
				// the live setting — same pure function, later input — so
				// the detector never sees a stale-keyed raster.
				if slot.detPrepared {
					staleCtr.Inc()
					res.StaleRefills++
				}
				slot.detPrepared = blob.PrepareInput(slot.frame, setting, slot.detIn)
				slot.detSetting = setting
				if slot.detPrepared {
					refillCtr.Inc()
				}
			}
			var prepared *imgproc.Gray
			if slot.detPrepared {
				prepared = slot.detIn
			}
			dets, faulted := runDetect(slot.frame, setting, prepared)
			// The emulated GPU phase: the CPU is parked here, which is
			// exactly the slack the prefetch stage fills.
			sleepScaled(lat.Detect(setting), cfg.TimeScale)
			if faulted {
				// Lost calibration: hold the previous frame's result, leave
				// the tracker on its old reference, and (adaptive runs) drop
				// one setting step — cheaper frames make the next attempt
				// likelier to land.
				var held []core.Detection
				if i > 0 {
					held = res.Outputs[i-1].Detections
				}
				out = core.FrameOutput{FrameIndex: i, Source: core.SourceHeld, Setting: setting, Detections: held}
				released = pyr
				if cfg.Adaptation != nil {
					if smaller, ok := core.NextSmaller(setting); ok {
						adapt.PublishDecision(cfg.Obs, setting, smaller, math.NaN(), 0, time.Since(start), labels()...)
						setting = smaller
						settingCell.Store(int64(setting))
						res.Downgrades++
					}
				}
			} else {
				dets = detect.Sanitize(dets)
				_, released = tr.InitWithPyramid(slot.frame, dets, pyr)
				out = core.FrameOutput{FrameIndex: i, Source: core.SourceDetector, Setting: setting, Detections: dets}
			}
			cfg.Obs.StageHistogram(obs.StageDetect, labels(obs.L("setting", setting.String()))...).ObserveDuration(time.Since(proc0))
		} else {
			var dets []core.Detection
			var vel float64
			dets, vel, released = tr.StepWithPyramid(slot.frame, pyr)
			if track.ValidVelocity(vel) {
				velSum += vel
				velN++
			}
			dets = detect.Sanitize(dets)
			out = core.FrameOutput{FrameIndex: i, Source: core.SourceTracker, Setting: setting, Detections: dets}
			trackHist.ObserveDuration(time.Since(proc0))
		}
		slotT0, slotT1 := slot.t0, slot.t1
		if depth > 1 {
			// The slot is consumed: the token lets the prefetcher reuse it,
			// the pyramid (or a fresh stand-in on the very first init, when
			// the tracker keeps the prefetched one and has nothing to trade)
			// lets it build another frame. Sends into free cannot block: its
			// capacity covers every circulating pyramid.
			ring.slots <- struct{}{}
			if released == nil {
				released = &imgproc.Pyramid{}
			}
			ring.free <- released
		} else if released != nil {
			seqPyr = released
		} else {
			// First init: the tracker kept the prefetched pyramid and had
			// nothing to trade back, and seqPyr still aliases what it kept —
			// rebuilding that in place would corrupt the reference frame.
			seqPyr = &imgproc.Pyramid{}
		}
		pub0 := time.Now()
		res.Outputs[i] = out
		res.Published = i + 1
		inflight.Set(float64(issuedFloor(depth, i, n) - res.Published))
		publishHist.ObserveDuration(time.Since(pub0))
		// Realized overlap: the part of this slot's prefetch that ran while
		// the previous frame was being processed. Zero by construction at
		// depth 1.
		if !prevProc0.IsZero() {
			overlapHist.Observe(intervalOverlap(slotT0, slotT1, prevProc0, prevProc1).Seconds())
		}
		prevProc0, prevProc1 = proc0, time.Now()
	}
	if ring != nil {
		res.pyramidsFree = ring.reclaim()
	}
	res.Elapsed = time.Since(start)
	inflight.Set(0)

	for i := 0; i < res.Published; i++ {
		res.FrameF1[i] = metrics.FrameF1(res.Outputs[i].Detections, v.Truth(i), metrics.DefaultIoU)
	}
	res.Accuracy = metrics.VideoAccuracy(res.FrameF1, metrics.DefaultAlpha)
	res.MeanF1 = metrics.Mean(res.FrameF1)
	if cancelled || ctx.Err() != nil {
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

// issuedFloor is the number of frames certainly issued to prefetch by the
// time frame i publishes: everything up to i plus the slots ahead.
func issuedFloor(depth, i, n int) int {
	issued := i + depth
	if issued > n {
		issued = n
	}
	return issued
}

// intervalOverlap returns the length of the intersection of [a0,a1] and
// [b0,b1], floored at zero.
func intervalOverlap(a0, a1, b0, b1 time.Time) time.Duration {
	lo := a0
	if b0.After(lo) {
		lo = b0
	}
	hi := a1
	if b1.Before(hi) {
		hi = b1
	}
	if hi.Before(lo) {
		return 0
	}
	return hi.Sub(lo)
}

// sleepScaled sleeps d scaled by the configured time scale.
func sleepScaled(d time.Duration, scale float64) {
	scaled := time.Duration(float64(d) * scale)
	if scaled > 0 {
		time.Sleep(scaled)
	}
}
