package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/fault"
	"adavp/internal/obs"
	"adavp/internal/serve"
	"adavp/internal/track"
	"adavp/internal/video"
)

// outputDigest is the SHA-256 of everything TestOutputDigest serializes. A
// change that moves sim output on purpose updates it here and records the
// change in CHANGES.md, as a scheduler change does with BENCH_serve.json.
const outputDigest = "0e07f65d93c5512415a302a0addf10e431cfcf2cee789b4741bd559dcefb11bf"

// TestOutputDigest pins the virtual clock: every policy, with and without a
// fault profile and with and without both ablation switches, on a static
// and a moving camera; a short pixel-mode run per policy; a batched
// multi-stream run with the prefetch model on; and the training samples.
// It hashes a canonical serialization (trace CSV and JSON, busy intervals,
// detection bits, accuracy, the Prometheus snapshot) of all of them, so a
// refactor of the engine shows any drift in one figure.
func TestOutputDigest(t *testing.T) {
	h := sha256.New()
	policies := allPolicies()
	profile := &fault.Profile{Rate: 0.1, Burst: 2, Seed: 7}
	for vi, k := range []video.Kind{video.KindHighway, video.KindRacetrack, video.KindCarHighway} {
		v := video.GenerateKind(k.String(), k, uint64(11+vi), 150)
		for _, p := range policies {
			for _, f := range []*fault.Profile{nil, profile} {
				for _, ablate := range []bool{false, true} {
					reg := obs.NewRegistry()
					r, err := Run(v, Config{Policy: p, Seed: 3, Fault: f, Obs: reg,
						TrackAllFrames: ablate, NoVelocitySmoothing: ablate})
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "run %s %v %t %t\n", v.Name, p, f != nil, ablate)
					digestResult(t, h, r)
					h.Write(snapshotBytes(t, reg))
				}
			}
		}
	}

	pv := video.GenerateKind("pixel", video.KindHighway, 5, 60)
	for _, p := range policies {
		r, err := Run(pv, Config{Policy: p, Seed: 4, PixelMode: true,
			Detector:   detect.NewBlobDetector(),
			NewTracker: func(uint64) track.Tracker { return track.NewPixelTracker() }})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "pixel %v\n", p)
		digestResult(t, h, r)
	}

	streams := testStreams(6)
	streams[1].Config.Policy, streams[4].Config.Policy = PolicyMPDT, PolicyMPDT
	reg := obs.NewRegistry()
	multi, err := RunMulti(streams, MultiConfig{
		Slots: 2, Batch: serve.BatchConfig{Size: 3, Linger: 5 * time.Millisecond},
		Obs: reg, PipelineDepth: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "multi %d %d %d %d %d %d %x\n", multi.MaxQueueDepth, multi.MaxOccupancy,
		multi.MaxSingleOccupancy, multi.Batches, multi.MaxBatch, len(multi.Streams),
		math.Float64bits(multi.SlotUtilization))
	for _, s := range multi.Streams {
		fmt.Fprintf(h, "stream %s %d %d %d %d %d %d\n", s.ID, s.Grants, s.Deferred, s.MaxWait,
			s.MaxOccupancy, s.MaxCalibAge, s.PrefetchedWhileWaiting)
		digestResult(t, h, s.Result)
	}
	h.Write(snapshotBytes(t, reg))

	samples, err := CollectTrainingSamples([]*video.Video{
		video.GenerateKind("a", video.KindHighway, 3, 150),
		video.GenerateKind("b", video.KindRacetrack, 4, 150),
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		fmt.Fprintf(h, "sample %v %x %v", s.Current, math.Float64bits(s.Velocity), s.Best)
		for _, set := range core.AdaptiveSettings {
			fmt.Fprintf(h, " %x", math.Float64bits(s.Scores[set]))
		}
		fmt.Fprintln(h)
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != outputDigest {
		t.Errorf("sim output digest = %s, want %s\n"+
			"sim output moved. A change that moves it on purpose updates outputDigest and "+
			"records the change in CHANGES.md, as with BENCH_serve.json.", got, outputDigest)
	}
}

// digestResult writes one run's canonical serialization to h.
func digestResult(t *testing.T, h hash.Hash, r *Result) {
	t.Helper()
	if err := r.Run.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	if err := r.Run.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%x %x %d\n", math.Float64bits(r.Accuracy), math.Float64bits(r.MeanF1), r.Run.Duration)
	for _, b := range r.Run.Busy {
		fmt.Fprintf(h, "busy %d %d %d %d\n", b.Resource, b.Setting, b.Start, b.End)
	}
	for _, o := range r.Run.Outputs {
		fmt.Fprintf(h, "out %d %d %d %d", o.FrameIndex, o.Source, o.Setting, o.Ready)
		for _, d := range o.Detections {
			fmt.Fprintf(h, " %d %x %x %x %x %x %d", d.Class, math.Float64bits(d.Box.Left),
				math.Float64bits(d.Box.Top), math.Float64bits(d.Box.W), math.Float64bits(d.Box.H),
				math.Float64bits(d.Score), d.TrackID)
		}
		fmt.Fprintln(h)
	}
}
