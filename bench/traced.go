package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/metrics"
	"adavp/internal/serve"
	"adavp/internal/sim"
	"adavp/internal/video"
)

// The traced run measures every layer, whichever workload is named: each
// section below drives one part of the program with spans or timestamps
// around the calls into it, at a share of the -seconds budget. The workload
// name selects whose section the Go runtime deltas are taken around and
// whose tracing overhead is measured (that section also runs untraced, for
// the reference). Every per-layer metric is therefore measured in every
// traced run, on inputs from the same seed.

// traceShare is the part of -seconds one timed section gets.
const traceShare = 0.3

// minWalks is the fewest pass-and-walk pairs the pixel section runs.
const minWalks = 3

// residualTolerance is how far the layer walk and rt.RunPipelined may differ
// per frame, as a share of the frame, before the traced run fails. The two do
// the same work when the output digests agree (checked exactly); this bound
// is for time, and sits where this box's pass-to-pass noise ends (fastest of
// three passes a side: 10% apart on a bad day), not where rt's own cost does
// (under 2 ms of a 25 ms frame).
const residualTolerance = 0.25

// section is what a traced section reports besides its metrics.
type section struct {
	rt runtimeDelta
	// traced and untraced are the throughput of the section's traced run and
	// of its untraced reference (zero when the reference was not run).
	traced, untraced float64
}

// runtimeDelta is the Go runtime's own accounting over an interval.
type runtimeDelta struct {
	gcCycles   uint32
	gcPause    time.Duration
	allocBytes uint64
	heapSys    uint64
	goroutines int
}

// measureRuntime runs fn and returns the runtime deltas around it.
func measureRuntime(fn func() error) (runtimeDelta, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return runtimeDelta{
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		heapSys:    after.HeapSys,
		goroutines: runtime.NumGoroutine(),
	}, err
}

const mb = 1 << 20

// runTraced is the traced run: all sections, then the named workload's own
// runtime and overhead figures.
func runTraced(name string, seed uint64, seconds float64, sc scale) (*outcome, error) {
	out := newOutcome(name, perLayer)
	slice := seconds * traceShare

	px, err := tracePixel(out, seed, slice, sc)
	if err != nil {
		return nil, fmt.Errorf("pixel section: %w", err)
	}
	if _, _, err := traceLive(out, wLiveSingle, seed, slice, sc, false); err != nil {
		return nil, fmt.Errorf("live_single section: %w", err)
	}
	sv, serveCycles, err := traceLive(out, wServeMulti, seed, slice, sc, name == wServeMulti)
	if err != nil {
		return nil, fmt.Errorf("serve_multi section: %w", err)
	}
	if err := traceDrives(out, sc); err != nil {
		return nil, fmt.Errorf("serve drives: %w", err)
	}
	sm, err := traceSim(out, seed, slice, serveCycles, sc, name == wSimSweep)
	if err != nil {
		return nil, fmt.Errorf("sim_sweep section: %w", err)
	}

	own := map[string]section{wPixelSeq: px, wPixelOverlap: px, wServeMulti: sv, wSimSweep: sm}[name]
	out.metrics.set("runtime.gc_cycles", float64(own.rt.gcCycles))
	out.metrics.set("runtime.gc_pause_ms", ms(own.rt.gcPause))
	out.metrics.set("runtime.alloc_mb", float64(own.rt.allocBytes)/mb)
	out.metrics.set("runtime.heap_sys_mb", float64(own.rt.heapSys)/mb)
	out.metrics.set("runtime.goroutines_end", float64(own.rt.goroutines))
	out.metrics.set("trace.overhead_share", 1-ratio(own.traced, own.untraced))
	out.detail["traced_throughput"] = own.traced
	out.detail["untraced_throughput"] = own.untraced
	return out, nil
}

// tracePixel is the pixel section: untraced pixel_seq passes alternated with
// layer walks (so drift hits both alike), the isolated kernels, and the
// overlap configuration at depth 1 and at its own depth.
func tracePixel(out *outcome, seed uint64, slice float64, sc scale) (section, error) {
	var sec section
	v, err := pixelSetup(wPixelSeq, seed, sc)
	if err != nil {
		return sec, err
	}
	cfg := pixelConfig(wPixelSeq, seed)
	frames := v.NumFrames()

	var passMS, walkMS, unattributed []float64
	var walks []*walk
	var digest string
	budget := time.Duration(slice * float64(time.Second))
	start := time.Now()
	for len(walks) < minWalks || time.Since(start) < budget {
		p, err := runPixelPass(v, cfg)
		if err != nil {
			return sec, err
		}
		passMS = append(passMS, ms(p.res.Elapsed)/float64(frames))
		digest = p.digest
		out.attempted += frames
		out.failed += checkPixelOutputs(p.res, frames)

		var w *walk
		rd, _ := measureRuntime(func() error { w = pixelWalk(v, cfg); return nil })
		if len(walks) == 0 {
			sec.rt = rd
		}
		walks = append(walks, w)
		total, self := w.frameTotals()
		walkMS = append(walkMS, ms(total)/float64(frames))
		unattributed = append(unattributed, ratio(float64(self), float64(total)))
		out.attempted += frames
		if d := outputDigest(w.res, v.Name); d != digest {
			out.fail("layer walk digest %s differs from rt.RunPipelined's %s: the walk no longer follows the loop", d, digest)
		}
	}

	// Per-call figures pool every walk's spans.
	spans := make(map[string][]float64)
	var boxes, objects []float64
	for _, w := range walks {
		for name, xs := range byName(w.rec.spans) {
			spans[name] = append(spans[name], xs...)
		}
		boxes = append(boxes, w.boxes...)
		objects = append(objects, w.objects...)
	}
	p50 := func(name string) float64 { return newDist(spans[name]).median() }
	out.metrics.set("video.render_ms", p50(spanRender))
	out.metrics.set("imgproc.pyramid_ms", p50(spanPyramid))
	out.metrics.set("detect.prepare_ms", p50(spanPrepare))
	out.metrics.set("detect.blob_ms", p50(spanBlob))
	out.metrics.set("detect.boxes", metrics.Mean(boxes))
	out.metrics.set("track.init_ms", p50(spanInit))
	out.metrics.set("track.step_ms", p50(spanStep))
	out.metrics.set("track.objects", metrics.Mean(objects))
	out.metrics.set("overlay.draw_ms", p50(spanOverlay))
	out.metrics.set("metrics.f1_ms", p50(spanF1))
	frameDist := newDist(spans[spanFrame])
	out.metrics.set("frame.walk_ms", frameDist.median())
	out.metrics.set("frame.walk_ms_p95", frameDist.at(95))
	out.metrics.set("frame.unattributed_share", newDist(unattributed).median())

	// rt's own cost: what a frame costs through the loop beyond the calls
	// the walk makes. Both sides are per-frame means of whole passes, and the
	// fastest pass of each stands for it: with a handful of passes a side, on
	// a box where one pass in three shares its cores with something else,
	// the fastest is the only figure the two sides have in common.
	untracedMS, walkedMS := newDist(passMS).sorted[0], newDist(walkMS).sorted[0]
	residual := untracedMS - walkedMS
	out.metrics.set("rt.loop_residual_ms", residual)
	if sc.full() && math.Abs(residual) > residualTolerance*untracedMS {
		out.fail("rt.loop_residual_ms %.3f is over %.0f%% of the %.3f ms frame: the walk and the loop no longer do the same work",
			residual, 100*residualTolerance, untracedMS)
	}
	sec.traced, sec.untraced = 1000/walkedMS, 1000/untracedMS

	k := pixelKernels(v, cfg, sc)
	out.metrics.set("imgproc.blur_ms", newDist(k.blur).median())
	out.metrics.set("imgproc.gradients_ms", newDist(k.gradients).median())
	out.metrics.set("imgproc.resize_ms", newDist(k.resize).median())
	out.metrics.set("imgproc.integral_ms", newDist(k.integral).median())
	out.metrics.set("features.detect_ms", newDist(k.featDetect).median())
	out.metrics.set("features.points", metrics.Mean(k.featPoints))
	out.metrics.set("flow.track_ms", newDist(k.flowTrack).median())
	out.metrics.set("flow.points", metrics.Mean(k.flowPoints))
	out.metrics.set("flow.found_share", ratio(float64(k.flowFound), float64(k.flowAttempted)))
	out.metrics.set("par.blur_speedup", k.blurSpeedup)
	out.metrics.set("par.pyramid_speedup", k.pyramidSpeedup)

	// The overlap configuration, sequential and at its own depth.
	ocfg := pixelConfig(wPixelOverlap, seed)
	deep, err := runPixelPass(v, ocfg)
	if err != nil {
		return sec, err
	}
	flat := ocfg
	flat.Depth = 1
	seq, err := runPixelPass(v, flat)
	if err != nil {
		return sec, err
	}
	if deep.digest != seq.digest {
		out.fail("depth %d digest %s differs from depth 1's %s", ocfg.Depth, deep.digest, seq.digest)
	}
	out.attempted += 2 * frames
	out.failed += checkPixelOutputs(deep.res, frames) + checkPixelOutputs(seq.res, frames)
	out.metrics.set("rt.overlap_gain", ratio(ms(seq.res.Elapsed), ms(deep.res.Elapsed)))
	out.metrics.set("rt.stale_refills", float64(deep.res.StaleRefills))
	out.metrics.set("rt.switches", float64(deep.res.Switches))

	out.detail["pixel"] = map[string]any{
		"walks":                len(walks),
		"frames_per_pass":      frames,
		"untraced_ms_frame":    passMS,
		"walk_ms_frame":        walkMS,
		"frame_span_ms":        frameDist.summary(),
		"output_digest":        digest,
		"span_samples":         sampleCounts(spans),
		"kernel_samples":       len(k.blur),
		"unattributed_by_walk": unattributed,
	}
	return sec, nil
}

func sampleCounts(m map[string][]float64) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = len(v)
	}
	return out
}

// traceLive is a live section: the workload with the probes recording call
// durations as well. It returns the section and the run's cycle count (the
// model audit compares serve_multi's with the simulator's).
func traceLive(out *outcome, workload string, seed uint64, slice float64, sc scale, reference bool) (section, int, error) {
	var sec section
	frames := liveFrames(slice, sc)
	runOnce := func(traced bool) (*liveRun, liveFigures, error) {
		streams, err := liveSetup(workload, seed, frames, traced, sc)
		if err != nil {
			return nil, liveFigures{}, err
		}
		run, err := runStreams(streams, sc)
		if err != nil {
			return nil, liveFigures{}, err
		}
		return run, run.figures(sc), nil
	}
	if reference {
		run, fig, err := runOnce(false)
		if err != nil {
			return sec, 0, err
		}
		sec.untraced = float64(fig.fresh) / run.wall.Seconds()
	}
	var run *liveRun
	var fig liveFigures
	rd, err := measureRuntime(func() error {
		var err error
		run, fig, err = runOnce(true)
		return err
	})
	if err != nil {
		return sec, 0, err
	}
	sec.rt = rd
	sec.traced = float64(fig.fresh) / run.wall.Seconds()
	out.attempted += fig.frames - fig.bootstrap + fig.cycles + fig.deferred
	out.failed += fig.failed

	var detectMS, initMS, stepMS, perCycle []float64
	var maxAge, maxOcc time.Duration
	prefetched := 0
	for i, s := range run.streams {
		detectMS = append(detectMS, durationsMS(s.probe.detectTook)...)
		initMS = append(initMS, durationsMS(s.probe.initTook)...)
		stepMS = append(stepMS, durationsMS(s.probe.stepTook)...)
		for _, n := range s.probe.stepsInInit {
			perCycle = append(perCycle, float64(n))
		}
		res := run.results[i]
		if res.MaxCalibAge > maxAge {
			maxAge = res.MaxCalibAge
		}
		if res.MaxSlotOccupancy > maxOcc {
			maxOcc = res.MaxSlotOccupancy
		}
		prefetched += res.PrefetchedWhileWaiting
	}
	fresh := ratio(float64(fig.fresh), float64(fig.frames))
	detail := map[string]any{
		"streams": len(run.streams), "frames_per_stream": frames, "wall_s": run.wall.Seconds(),
		"cycles": fig.cycles, "frame_lag_ms": fig.lagTracked.summary(), "calib_interval_ms": fig.calibInterval.summary(),
		"detect_calls": len(detectMS), "track_inits": len(initMS), "track_steps": len(stepMS),
	}
	if workload == wLiveSingle {
		out.metrics.set("rt.detect_call_ms", newDist(detectMS).median())
		out.metrics.set("rt.track_init_ms", newDist(initMS).median())
		out.metrics.set("rt.track_step_ms", newDist(stepMS).median())
		out.metrics.set("rt.tracked_per_cycle", metrics.Mean(perCycle))
		out.metrics.set("rt.cycles", float64(fig.cycles))
		out.metrics.set("rt.deferred", float64(fig.deferred))
		out.metrics.set("rt.max_calib_age_ms", ms(maxAge))
		out.metrics.set("rt.max_slot_occupancy_ms", ms(maxOcc))
		out.metrics.set("rt.prefetched_while_waiting", float64(prefetched))
		out.metrics.set("rt.fresh_share", fresh)
		out.metrics.set("rt.calib_interval_ms_p50", fig.calibInterval.median())
		out.metrics.set("rt.calib_interval_ms_p95", fig.calibInterval.at(95))
		out.metrics.set("frame_lag_ms_p90", fig.lagTracked.at(90))
	} else {
		st := run.stats
		out.metrics.set("serve.admitted", float64(st.Admitted))
		out.metrics.set("serve.refused", float64(st.Refused))
		out.metrics.set("serve.cancelled", float64(st.Cancelled))
		out.metrics.set("serve.batches", float64(st.Batches))
		out.metrics.set("serve.batch_fill", st.MeanBatchFill())
		out.metrics.set("serve.max_batch", float64(st.MaxBatch))
		out.metrics.set("serve.fresh_share", fresh)
		out.metrics.set("serve.calib_interval_ms_p50", fig.calibInterval.median())
		out.metrics.set("serve.calib_interval_ms_p95", fig.calibInterval.at(95))
		out.metrics.set("serve.frame_lag_ms_p90", fig.lagTracked.at(90))
		detail["prefetched_while_waiting"] = prefetched
		detail["max_calib_age_ms"] = ms(maxAge)
	}
	out.detail[workload] = detail
	return sec, fig.cycles, nil
}

// traceDrives runs the direct pool and queue drives.
func traceDrives(out *outcome, sc scale) error {
	waits, _, err := drivePool(sc.poolGrants, poolHold)
	if err != nil {
		return err
	}
	waitUS := make([]float64, len(waits))
	for i, w := range waits {
		waitUS[i] = us(w)
	}
	d := newDist(waitUS)
	out.metrics.set("serve.pool.acquire_wait_us_p50", d.median())
	out.metrics.set("serve.pool.acquire_wait_us_p95", d.at(95))
	// Hold nothing: what is left is the pool's own grant path.
	free, wall, err := drivePool(20*sc.poolGrants, 0)
	if err != nil {
		return err
	}
	out.metrics.set("serve.pool.grants_per_s", float64(len(free))/wall.Seconds())
	cycles := queueCycles
	if !sc.full() {
		cycles = queueDepth
	}
	out.metrics.set("serve.queue.push_popbatch_ns", driveQueue(cycles))
	out.attempted += len(waits) + len(free) + cycles
	out.detail["drives"] = map[string]any{"pool_acquire_wait_us": d.summary(), "pool_free_grants": len(free), "queue_cycles": cycles}
	return nil
}

// traceSim is the virtual-clock section: input generation, one phase-A round
// and one loadtest sweep with every call timed, and the model audit — the
// simulator's grant count for serve_multi's stream set beside the live cycle
// count the serve section just measured.
func traceSim(out *outcome, seed uint64, slice float64, liveCycles int, sc scale, reference bool) (section, error) {
	var sec section
	genStart := time.Now()
	videos := video.TestSet(subSeed(seed, laneSimSet, 0), sc.simFrames)
	genTook := time.Since(genStart)
	setFrames := 0
	for _, v := range videos {
		setFrames += v.NumFrames()
	}
	out.metrics.set("video.generate_us_per_frame", us(genTook)/float64(setFrames))

	if reference {
		r, err := runSimRound(videos, seed, 0, false, sc)
		if err != nil {
			return sec, err
		}
		sec.untraced = float64(r.frames) / r.took().Seconds()
	}
	var round simRound
	rd, err := measureRuntime(func() error {
		var err error
		round, err = runSimRound(videos, seed, 0, true, sc)
		return err
	})
	if err != nil {
		return sec, err
	}
	sec.rt = rd
	sec.traced = float64(round.frames) / round.took().Seconds()
	for i, name := range simPolicyNames {
		out.metrics.set("sim.run_us_per_frame."+name, us(round.policyTook[i])/float64(setFrames))
	}
	multiFrames := round.frames - len(simPolicies)*setFrames
	out.metrics.set("sim.multi_us_per_frame", us(round.multiTook)/float64(multiFrames))

	sw := runLoadSweep(loadtestConfigs(seed, sc))
	for i, name := range loadtestScenarios {
		out.metrics.set("loadtest.run_ms."+name, ms(sw.took[i]))
	}
	out.attempted += round.frames + sw.requests
	out.failed += sw.failed
	out.problems = append(out.problems, sw.problems...)

	// The model audit: the same streams, seeds and pool through sim.RunMulti.
	frames := liveFrames(slice, sc)
	serveSet := serveVideos(seed, frames, sc)
	streams := make([]sim.MultiStream, len(serveSet))
	for i, v := range serveSet {
		streams[i] = sim.MultiStream{
			ID: fmt.Sprintf("s%02d", i), Video: v,
			Config: sim.Config{Policy: sim.PolicyAdaVP, Setting: startSetting, Adaptation: adapt.DefaultModel(), Seed: streamSeed(seed, i)},
		}
	}
	multi, err := sim.RunMulti(streams, sim.MultiConfig{
		Slots: sc.slots, Batch: serve.BatchConfig{Size: sc.batch}, PipelineDepth: 2,
	})
	if err != nil {
		return sec, fmt.Errorf("model audit: sim.RunMulti: %w", err)
	}
	grants := 0
	for _, so := range multi.Streams {
		grants += so.Grants
	}
	out.metrics.set("sim.model_error_cycles", ratio(float64(liveCycles), float64(grants))-1)
	out.detail[wSimSweep] = map[string]any{
		"videos": len(videos), "frames_per_video": sc.simFrames, "round_frames": round.frames,
		"audit_live_cycles": liveCycles, "audit_sim_grants": grants, "output_digest": round.digest,
	}
	return sec, nil
}
