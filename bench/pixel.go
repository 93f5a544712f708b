package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/rt"
	"adavp/internal/video"
)

// pixelMinF1 is the accuracy floor of the pixel workloads. Over thirty seeds
// the spliced video scored 0.78 to 0.99 through the blob detector and pixel
// tracker; the floor sits well under the lowest, so that it fails a change
// that broke detection or tracking and never a seed whose scenes are hard.
// (A drop inside the range is mean_f1's business, which has a bound.)
const pixelMinF1 = 0.50

// pixelConfig returns the staged-loop configuration of a pixel workload.
func pixelConfig(workload string, seed uint64) rt.PipelineConfig {
	cfg := rt.PipelineConfig{
		Setting:    startSetting,
		Adaptation: adapt.DefaultModel(),
		Seed:       subSeed(seed, lanePixelRun, 0),
	}
	switch workload {
	case wPixelSeq:
		// The emulated GPU sleep rounds to zero: compute only.
		cfg.Depth, cfg.DetectEvery, cfg.TimeScale = 1, 8, 1e-9
	case wPixelOverlap:
		cfg.Depth, cfg.DetectEvery, cfg.TimeScale = 3, 2, 0.02
	default:
		panic("bench: " + workload + " is not a pixel workload")
	}
	return cfg
}

// pixelPass is one run of rt.RunPipelined over the whole video.
type pixelPass struct {
	res     *rt.PipelineResult
	mallocs uint64
	digest  string
}

// runPixelPass runs one pass behind a forced collection, so that garbage of
// the previous pass is not collected inside this one.
func runPixelPass(v *video.Video, cfg rt.PipelineConfig) (pixelPass, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := rt.RunPipelined(context.Background(), v, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		return pixelPass{}, fmt.Errorf("rt.RunPipelined: %w", err)
	}
	return pixelPass{res: res, mallocs: after.Mallocs - before.Mallocs, digest: outputDigest(res, v.Name)}, nil
}

// outputDigest hashes everything a pass produced: the trace schema's two
// serializations (what the depth-parity tests pin) and every detection's
// class, box and score bit for bit, which the trace schema does not carry.
func outputDigest(res *rt.PipelineResult, name string) string {
	var buf bytes.Buffer
	run := res.TraceRun(name, "bench")
	// Writes to a bytes.Buffer cannot fail; a serialization error would be a
	// non-finite F1, which hashes as whatever was written before it.
	_ = run.WriteCSV(&buf)
	_ = run.WriteJSON(&buf)
	h := sha256.New()
	h.Write(buf.Bytes())
	var word [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(f))
		h.Write(word[:])
	}
	for _, out := range res.Outputs {
		for _, d := range out.Detections {
			put(float64(d.Class))
			put(d.Box.Left)
			put(d.Box.Top)
			put(d.Box.W)
			put(d.Box.H)
			put(d.Score)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pixelSetup generates the video and runs the warm-up pass; it is what
// setup_s times on the pixel workloads.
func pixelSetup(workload string, seed uint64, sc scale) (*video.Video, error) {
	v := pixelVideo(seed, sc)
	if _, err := rt.RunPipelined(context.Background(), pixelWarmVideo(seed, sc), pixelConfig(workload, seed)); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return v, nil
}

// checkPixelOutputs counts the frames of a pass that have no usable output.
func checkPixelOutputs(res *rt.PipelineResult, frames int) (failed int) {
	if res.Partial || len(res.Outputs) != frames {
		return frames
	}
	for i, out := range res.Outputs {
		if out.FrameIndex != i || out.Source == core.SourceNone {
			failed++
		}
	}
	return failed
}

// runPixel is the untraced run of a pixel workload: timed passes over the
// spliced video until the budget is used.
func runPixel(workload string, seed uint64, seconds float64, sc scale) (*outcome, error) {
	out := newOutcome(workload, endToEnd)
	var v *video.Video
	setup, err := timeSetup(sc.setupRepeats, func() error {
		var err error
		v, err = pixelSetup(workload, seed, sc)
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg := pixelConfig(workload, seed)
	frames := v.NumFrames()

	var passes []pixelPass
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for len(passes) < sc.minPasses || time.Since(start) < budget {
		p, err := runPixelPass(v, cfg)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}

	elapsed := make([]float64, len(passes))
	var mallocs uint64
	for i, p := range passes {
		elapsed[i] = ms(p.res.Elapsed)
		mallocs += p.mallocs
		out.attempted += frames
		out.failed += checkPixelOutputs(p.res, frames)
		if p.digest != passes[0].digest {
			out.fail("pass %d output digest %s differs from pass 0's %s", i, p.digest, passes[0].digest)
		}
	}
	first := passes[0].res
	if sc.full() && first.MeanF1 < pixelMinF1 {
		out.fail("mean F1 %.4f under the floor %.2f", first.MeanF1, pixelMinF1)
	}
	passMS := newDist(elapsed)
	fps := float64(frames) / (passMS.median() / 1000)
	out.metrics.set("setup_s", setup.median())
	out.metrics.set("frames_per_s", fps)
	out.metrics.set("calibrations_per_s", fps/float64(cfg.DetectEvery))
	out.metrics.set("latency_ms_p50", passMS.median())
	out.metrics.set("mean_f1", first.MeanF1)
	out.metrics.set("allocs_per_frame", float64(mallocs)/float64(len(passes)*frames))

	out.detail["frames_per_pass"] = frames
	out.detail["passes"] = len(passes)
	out.detail["pass_ms"] = passMS.summary()
	out.detail["pass_ms_values"] = elapsed
	out.detail["setup_s_values"] = setup.sorted
	out.detail["output_digest"] = passes[0].digest
	out.detail["switches"] = first.Switches
	out.detail["stale_refills"] = first.StaleRefills
	return out, nil
}
