package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/rt"
	"adavp/internal/serve"
	"adavp/internal/track"
	"adavp/internal/video"
)

// The live workloads are open loops: rt's camera publishes frame i at
// t0 + i·interval whatever the pipeline is doing, so a slow pipeline sees
// the same load and simply tracks fewer frames. What the benchmark can see
// of a frame from outside rt is when its Detect or Step call returned, which
// the two wrappers below record; everything else comes from rt.Result.
//
// Limitation: t0 is taken just before rt.Run (serve.Run) is called. The
// camera goroutine starts a few microseconds later, and how late it then
// publishes each frame is not visible from outside, so frame lag includes
// camera lateness without separating it.

// serveRecordedF1 is serve_multi's mean F1 as recorded when the benchmark was
// defined (the lowest of twenty seeds); a run passes its accuracy check at
// 0.8 of it. Sixteen streams on two slots calibrate every 0.6 s of wall
// time, 2.5 s of video, so most of every cycle is tracked against a stale
// reference: the figure is low by design of the load, not by fault.
const serveRecordedF1 = 0.185

// streamProbe records what one stream's detector and tracker wrappers saw.
// The detector and tracker threads of a stream call into it concurrently.
type streamProbe struct {
	traced bool

	mu          sync.Mutex
	detectAt    []time.Time     // Detect call entries
	frameDone   []frameStamp    // Detect and Step returns, by frame
	detectTook  []time.Duration // traced only
	initTook    []time.Duration // traced only
	stepTook    []time.Duration // traced only
	stepsInInit []int           // Steps since each Init, closed at the next
}

type frameStamp struct {
	frame   int
	at      time.Time
	tracked bool
}

type probedDetector struct {
	inner detect.Detector
	p     *streamProbe
}

func (d probedDetector) Detect(f core.Frame, s core.Setting) []core.Detection {
	return d.DetectCtx(context.Background(), f, s)
}

// DetectCtx forwards the supervisor's abandonment signal, so the blob
// detector's scratch handling is what it is without the wrapper.
func (d probedDetector) DetectCtx(ctx context.Context, f core.Frame, s core.Setting) []core.Detection {
	start := time.Now()
	dets := detect.DetectWith(ctx, d.inner, f, s)
	end := start
	if d.p.traced {
		end = time.Now()
	}
	d.p.mu.Lock()
	d.p.detectAt = append(d.p.detectAt, start)
	if d.p.traced {
		d.p.detectTook = append(d.p.detectTook, end.Sub(start))
		d.p.frameDone = append(d.p.frameDone, frameStamp{frame: f.Index, at: end})
	}
	d.p.mu.Unlock()
	return dets
}

type probedTracker struct {
	inner track.Tracker
	p     *streamProbe
}

func (t probedTracker) Init(ref core.Frame, dets []core.Detection) int {
	if !t.p.traced {
		return t.inner.Init(ref, dets)
	}
	start := time.Now()
	n := t.inner.Init(ref, dets)
	took := time.Since(start)
	t.p.mu.Lock()
	t.p.initTook = append(t.p.initTook, took)
	t.p.stepsInInit = append(t.p.stepsInInit, 0)
	t.p.mu.Unlock()
	return n
}

func (t probedTracker) Step(next core.Frame) ([]core.Detection, float64) {
	var start time.Time
	if t.p.traced {
		start = time.Now()
	}
	dets, vel := t.inner.Step(next)
	end := time.Now()
	t.p.mu.Lock()
	t.p.frameDone = append(t.p.frameDone, frameStamp{frame: next.Index, at: end, tracked: true})
	if t.p.traced {
		t.p.stepTook = append(t.p.stepTook, end.Sub(start))
		if n := len(t.p.stepsInInit); n > 0 {
			t.p.stepsInInit[n-1]++
		}
	}
	t.p.mu.Unlock()
	return dets, vel
}

// liveStream is one stream of a live run: its video, its rt configuration
// and the probe behind its wrappers.
type liveStream struct {
	id    string
	v     *video.Video
	cfg   rt.Config
	probe *streamProbe
}

// newLiveStream wires the probes into an rt.Config. Pixel streams run the
// blob detector and the pixel tracker; model streams the calibrated
// surrogates rt would build itself.
func newLiveStream(id string, v *video.Video, pixel bool, seed uint64, traced bool, sc scale) liveStream {
	probe := &streamProbe{traced: traced}
	var det detect.Detector
	var newTracker func(uint64) track.Tracker
	if pixel {
		det = detect.NewBlobDetector()
		newTracker = func(uint64) track.Tracker { return probedTracker{track.NewPixelTracker(), probe} }
	} else {
		det = detect.NewSimDetector(seed, v.Params.W, v.Params.H)
		newTracker = func(s uint64) track.Tracker {
			mt := track.NewModelTracker(s)
			mt.SetBounds(v.Bounds())
			return probedTracker{mt, probe}
		}
	}
	return liveStream{
		id: id, v: v, probe: probe,
		cfg: rt.Config{
			Setting:       startSetting,
			Adaptation:    adapt.DefaultModel(),
			Detector:      probedDetector{det, probe},
			NewTracker:    newTracker,
			TimeScale:     sc.liveScale,
			Seed:          seed,
			PixelMode:     pixel,
			PipelineDepth: 2,
		},
	}
}

// liveRun is a finished live run of one or more streams.
type liveRun struct {
	streams []liveStream
	results []*rt.Result
	stats   serve.StatsSnapshot // zero for a single stream
	t0      time.Time
	wall    time.Duration
	mallocs uint64
}

// runStreams runs the streams to completion: one through rt.Run on a
// dedicated slot, several through serve.Run on the shared pool.
func runStreams(streams []liveStream, sc scale) (*liveRun, error) {
	run := &liveRun{streams: streams, results: make([]*rt.Result, len(streams))}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run.t0 = time.Now()
	if len(streams) == 1 {
		res, err := rt.Run(context.Background(), streams[0].v, streams[0].cfg)
		if err != nil {
			return nil, fmt.Errorf("rt.Run: %w", err)
		}
		run.results[0] = res
	} else {
		specs := make([]serve.StreamSpec, len(streams))
		for i, s := range streams {
			specs[i] = serve.StreamSpec{ID: s.id, Video: s.v, Config: s.cfg}
		}
		res, err := serve.Run(context.Background(), specs, serve.RunConfig{
			Slots: sc.slots, Batch: serve.BatchConfig{Size: sc.batch}, PipelineDepth: 2,
		})
		if err != nil {
			return nil, fmt.Errorf("serve.Run: %w", err)
		}
		for i, sr := range res.Streams {
			if sr.Err != nil {
				return nil, fmt.Errorf("serve.Run: stream %s: %w", sr.ID, sr.Err)
			}
			run.results[i] = sr.Result
		}
		run.stats = res.Stats
	}
	run.wall = time.Since(run.t0)
	runtime.ReadMemStats(&after)
	run.mallocs = after.Mallocs - before.Mallocs
	return run, nil
}

// liveFigures are the numbers a live run yields.
type liveFigures struct {
	frames, fresh, failed int
	bootstrap             int // frames before a stream's first calibration
	cycles, deferred      int
	meanF1                float64
	lagTracked            dist // ms, due time → Step return
	calibInterval         dist // ms, between consecutive Detect calls
}

// figures evaluates a live run: output checks, freshness, lag and cadence.
func (r *liveRun) figures(sc scale) liveFigures {
	var fig liveFigures
	var lags, gaps []float64
	var f1Sum float64
	for i, s := range r.streams {
		res := r.results[i]
		n := s.v.NumFrames()
		fig.frames += n
		fig.cycles += res.Cycles
		fig.deferred += res.Deferred
		f1Sum += res.MeanF1
		if res.Partial || len(res.Outputs) != n {
			fig.failed += n
			continue
		}
		started := false
		for j, out := range res.Outputs {
			switch {
			case out.FrameIndex != j:
				fig.failed++
			case out.Source == core.SourceNone:
				// Before a stream's first calibration lands there is nothing
				// to show or hold: those frames are the pipeline's start-up,
				// not failed operations. A gap after it would be.
				if started {
					fig.failed++
				} else {
					fig.bootstrap++
				}
			default:
				started = true
				if out.Source != core.SourceHeld {
					fig.fresh++
				}
			}
		}
		interval := time.Duration(float64(s.v.FrameInterval()) * sc.liveScale)
		for _, st := range s.probe.frameDone {
			if st.tracked {
				due := r.t0.Add(time.Duration(st.frame) * interval)
				lags = append(lags, ms(st.at.Sub(due)))
			}
		}
		for k := 1; k < len(s.probe.detectAt); k++ {
			gaps = append(gaps, ms(s.probe.detectAt[k].Sub(s.probe.detectAt[k-1])))
		}
	}
	// A refused detection request is a failed operation as well.
	fig.failed += fig.deferred
	fig.meanF1 = f1Sum / float64(len(r.streams))
	fig.lagTracked = newDist(lags)
	fig.calibInterval = newDist(gaps)
	return fig
}

// liveStreams builds the streams of a live workload from the seed.
func liveStreams(workload string, seed uint64, frames int, traced bool, sc scale) []liveStream {
	if workload == wLiveSingle {
		v := liveSingleVideo(seed, frames, sc)
		return []liveStream{newLiveStream("cam", v, true, streamSeed(seed, 0), traced, sc)}
	}
	videos := serveVideos(seed, frames, sc)
	out := make([]liveStream, len(videos))
	for i, v := range videos {
		out[i] = newLiveStream(fmt.Sprintf("s%02d", i), v, false, streamSeed(seed, i), traced, sc)
	}
	return out
}

// liveSetup generates the streams and runs a short warm-up over a second,
// equally seeded set, so pools, goroutine stacks and the timer heap are warm.
func liveSetup(workload string, seed uint64, frames int, traced bool, sc scale) ([]liveStream, error) {
	streams := liveStreams(workload, seed, frames, traced, sc)
	warm := liveStreams(workload, seed, liveFrames(sc.warmLive.Seconds(), sc), false, sc)
	if _, err := runStreams(warm, sc); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return streams, nil
}

// runLive is the untraced run of a live workload.
func runLive(workload string, seed uint64, seconds float64, sc scale) (*outcome, error) {
	out := newOutcome(workload, endToEnd)
	frames := liveFrames(seconds, sc)
	var streams []liveStream
	setup, err := timeSetup(sc.setupRepeats, func() error {
		var err error
		streams, err = liveSetup(workload, seed, frames, false, sc)
		return err
	})
	if err != nil {
		return nil, err
	}
	run, err := runStreams(streams, sc)
	if err != nil {
		return nil, err
	}
	fig := run.figures(sc)
	out.attempted = fig.frames - fig.bootstrap + fig.cycles + fig.deferred
	out.failed = fig.failed
	if sc.full() && fig.meanF1 < 0.8*serveRecordedF1 {
		out.fail("mean F1 %.4f under 0.8 of the recorded %.3f", fig.meanF1, serveRecordedF1)
	}
	wall := run.wall.Seconds()
	out.metrics.set("setup_s", setup.median())
	out.metrics.set("frames_per_s", float64(fig.fresh)/wall)
	out.metrics.set("calibrations_per_s", float64(fig.cycles)/wall)
	out.metrics.set("latency_ms_p50", fig.lagTracked.median())
	out.metrics.set("mean_f1", fig.meanF1)
	out.metrics.set("allocs_per_frame", float64(run.mallocs)/float64(fig.frames))

	out.detail["streams"] = len(streams)
	out.detail["frames_per_stream"] = frames
	out.detail["wall_s"] = wall
	out.detail["fresh_share"] = float64(fig.fresh) / float64(fig.frames)
	out.detail["cycles"] = fig.cycles
	out.detail["deferred"] = fig.deferred
	out.detail["bootstrap_frames"] = fig.bootstrap
	out.detail["frame_lag_ms"] = fig.lagTracked.summary()
	out.detail["calib_interval_ms"] = fig.calibInterval.summary()
	out.detail["setup_s_values"] = setup.sorted
	if len(streams) > 1 {
		out.detail["pool"] = run.stats
		out.detail["batch_fill"] = run.stats.MeanBatchFill()
	}
	return out, nil
}
