package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/metrics"
	"adavp/internal/video"
)

// SetResult aggregates a policy's runs over a whole video set.
type SetResult struct {
	PerVideo []*Result
	// MeanAccuracy is the average per-video accuracy — the paper's headline
	// metric ("we use the average percentage per video as accuracy").
	MeanAccuracy float64
	// MeanF1 is the average per-video mean F1.
	MeanF1 float64
}

// RunSet executes one configuration over every video, deriving a distinct
// seed per video. Videos run concurrently on GOMAXPROCS goroutines; results
// do not depend on it: each video's run is a pure function of its video and
// seed, the means are summed in video order, and the error returned is the
// lowest-index one, the error a serial loop would stop at.
//
// Because runs share cfg, RunSet rejects the two fields that would be
// shared mutable state: a Detector (one instance raced across concurrent
// runs) and an Obs registry (whose snapshot would interleave runs and stop
// being byte-stable). For either, call Run per video.
func RunSet(videos []*video.Video, cfg Config) (*SetResult, error) {
	if len(videos) == 0 {
		return nil, fmt.Errorf("sim: empty video set")
	}
	if cfg.Detector != nil || cfg.Obs != nil {
		return nil, fmt.Errorf("sim: RunSet runs videos concurrently and cannot share a Config.Detector or Config.Obs between them; call Run per video instead")
	}
	out := &SetResult{PerVideo: make([]*Result, len(videos))}
	err := forEachVideo(len(videos), func(i int) error {
		c := cfg
		c.Seed = cfg.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
		r, err := Run(videos[i], c)
		if err != nil {
			return fmt.Errorf("sim: running %s: %w", videos[i].Name, err)
		}
		out.PerVideo[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	var accSum, f1Sum float64
	for _, r := range out.PerVideo {
		accSum += r.Accuracy
		f1Sum += r.MeanF1
	}
	out.MeanAccuracy = accSum / float64(len(videos))
	out.MeanF1 = f1Sum / float64(len(videos))
	return out, nil
}

// forEachVideo calls run(i) for every i in [0, n) on min(n, GOMAXPROCS)
// goroutines and returns the error of the lowest failing index. Each worker
// claims the next index from a shared counter rather than a fixed band of
// indices: a video's cost varies with its scenario, so a static split leaves
// one worker idle while another finishes a slow band.
func forEachVideo(n int, run func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := min(n, runtime.GOMAXPROCS(0))
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CollectTrainingSamples reproduces the paper's §IV-D.3 training-data
// pipeline: every video is processed by fixed-setting MPDT at all four
// adaptive settings; each 1-second chunk yields (per setting) a mean motion
// velocity and a mean accuracy; the setting with the highest accuracy is the
// chunk's label. One sample is emitted per (chunk, measuring setting).
func CollectTrainingSamples(videos []*video.Video, seed uint64) ([]adapt.Sample, error) {
	perVideo := make([][]adapt.Sample, len(videos))
	err := forEachVideo(len(videos), func(vi int) error {
		var err error
		perVideo[vi], err = videoTrainingSamples(videos[vi], vi, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	var samples []adapt.Sample
	for _, vs := range perVideo {
		samples = append(samples, vs...)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("sim: no training samples collected")
	}
	return samples, nil
}

// videoTrainingSamples is one video's share of CollectTrainingSamples: its
// four setting runs and its labelled chunks. vi is the video's index in the
// set, which seeds the runs. A video shorter than one chunk yields nothing.
func videoTrainingSamples(v *video.Video, vi int, seed uint64) ([]adapt.Sample, error) {
	chunk := v.FPS() // frames per 1-second chunk
	if chunk <= 0 || v.NumFrames() < chunk {
		return nil, nil
	}
	numChunks := v.NumFrames() / chunk
	type perSetting struct {
		f1  []float64   // per chunk
		vel [][]float64 // per chunk: one smoothed velocity per cycle
	}
	bySetting := make(map[core.Setting]perSetting, len(core.AdaptiveSettings))
	for _, s := range core.AdaptiveSettings {
		r, err := Run(v, Config{
			Policy:  PolicyMPDT,
			Setting: s,
			Seed:    seed ^ (uint64(vi+1) * 7919) ^ uint64(s),
		})
		if err != nil {
			return nil, fmt.Errorf("sim: training run %s/%v: %w", v.Name, s, err)
		}
		ps := perSetting{f1: make([]float64, numChunks), vel: make([][]float64, numChunks)}
		// Chunked mean F1.
		for c := 0; c < numChunks; c++ {
			ps.f1[c] = metrics.Mean(r.Run.FrameF1[c*chunk : (c+1)*chunk])
		}
		// Per-cycle velocities, smoothed exactly like the runtime
		// adaptation input (adapt.Smooth over cycles) so the training
		// feature distribution matches what the deployed module will see,
		// and attributed to the chunk containing the cycle's end.
		ewma := -1.0
		for _, cyc := range r.Run.Cycles {
			if cyc.Velocity < 0 {
				continue
			}
			ewma = adapt.Smooth(ewma, cyc.Velocity)
			c := int(cyc.End / v.FrameInterval() / time.Duration(chunk))
			if c >= 0 && c < numChunks {
				ps.vel[c] = append(ps.vel[c], ewma)
			}
		}
		bySetting[s] = ps
	}
	// Label each chunk with the best setting and emit samples carrying
	// the full per-setting score vector (soft training costs).
	var samples []adapt.Sample
	for c := 0; c < numChunks; c++ {
		best := core.SettingInvalid
		bestF1 := -1.0
		scores := make(map[core.Setting]float64, len(core.AdaptiveSettings))
		for _, s := range core.AdaptiveSettings {
			f1 := bySetting[s].f1[c]
			scores[s] = f1
			if f1 > bestF1 {
				bestF1 = f1
				best = s
			}
		}
		for _, s := range core.AdaptiveSettings {
			for _, vel := range bySetting[s].vel[c] {
				samples = append(samples, adapt.Sample{Current: s, Velocity: vel, Best: best, Scores: scores})
			}
		}
	}
	return samples, nil
}
