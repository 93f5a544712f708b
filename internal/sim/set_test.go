package sim

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/fault"
	"adavp/internal/leaktest"
	"adavp/internal/obs"
	"adavp/internal/video"
)

// atProcs runs f with runtime.GOMAXPROCS set to procs, restoring the
// previous value afterwards.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// setParityConfigs are the configurations the fan-out parity test sweeps:
// the five policies, one fault profile, and the two ablation toggles.
func setParityConfigs() map[string]Config {
	cfgs := map[string]Config{
		"fault":          {Policy: PolicyAdaVP, Seed: 11, Fault: &fault.Profile{Rate: 0.2, Seed: 5}},
		"track-all":      {Policy: PolicyAdaVP, Seed: 12, TrackAllFrames: true},
		"raw-velocities": {Policy: PolicyAdaVP, Seed: 13, NoVelocitySmoothing: true},
	}
	for _, p := range allPolicies() {
		cfgs[p.String()] = Config{Policy: p, Setting: core.Setting416, Seed: 10}
	}
	return cfgs
}

// sameRun reports where two runs of one video differ: everything compared
// with reflect.DeepEqual except the per-frame F1, which is compared bit for
// bit (DeepEqual calls 0 and -0 equal).
func sameRun(t *testing.T, what string, a, b *Result) {
	t.Helper()
	if math.Float64bits(a.Accuracy) != math.Float64bits(b.Accuracy) ||
		math.Float64bits(a.MeanF1) != math.Float64bits(b.MeanF1) {
		t.Errorf("%s: accuracy/F1 %v/%v vs %v/%v", what, a.Accuracy, a.MeanF1, b.Accuracy, b.MeanF1)
	}
	if len(a.Run.FrameF1) != len(b.Run.FrameF1) {
		t.Fatalf("%s: %d vs %d frame F1 values", what, len(a.Run.FrameF1), len(b.Run.FrameF1))
	}
	for i := range a.Run.FrameF1 {
		if math.Float64bits(a.Run.FrameF1[i]) != math.Float64bits(b.Run.FrameF1[i]) {
			t.Fatalf("%s: frame %d F1 %v vs %v", what, i, a.Run.FrameF1[i], b.Run.FrameF1[i])
		}
	}
	ra, rb := *a.Run, *b.Run
	ra.FrameF1, rb.FrameF1 = nil, nil
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("%s: outputs, cycles, switches, busy log or faults differ", what)
	}
}

// TestRunSetMatchesAcrossProcs: RunSet's result is the same whether its
// videos run one at a time (GOMAXPROCS 1, the serial path) or fan out over
// 2 or 7 goroutines.
func TestRunSetMatchesAcrossProcs(t *testing.T) {
	base := leaktest.Count()
	videos := video.TestSet(3, 240)
	for name, cfg := range setParityConfigs() {
		var ref *SetResult
		for _, procs := range []int{1, 2, 7} {
			var got *SetResult
			var err error
			atProcs(procs, func() { got, err = RunSet(videos, cfg) })
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			if ref == nil {
				ref = got
				continue
			}
			if math.Float64bits(got.MeanAccuracy) != math.Float64bits(ref.MeanAccuracy) ||
				math.Float64bits(got.MeanF1) != math.Float64bits(ref.MeanF1) {
				t.Errorf("%s at GOMAXPROCS %d: means %v/%v, serial %v/%v",
					name, procs, got.MeanAccuracy, got.MeanF1, ref.MeanAccuracy, ref.MeanF1)
			}
			for i := range videos {
				sameRun(t, name+"/"+videos[i].Name, ref.PerVideo[i], got.PerVideo[i])
			}
		}
	}
	leaktest.Check(t, base)
}

// TestRunSetReturnsLowestIndexError: with empty videos at indices 3 and 7,
// RunSet reports index 3's, as the serial loop did, however many goroutines
// run.
func TestRunSetReturnsLowestIndexError(t *testing.T) {
	videos := video.TestSet(3, 60)[:10]
	videos[3] = video.GenerateKind("empty-3", video.KindHighway, 1, 0)
	videos[7] = video.GenerateKind("empty-7", video.KindHighway, 1, 0)
	for _, procs := range []int{1, 2, 7} {
		var err error
		atProcs(procs, func() { _, err = RunSet(videos, Config{Policy: PolicyMPDT, Seed: 1}) })
		if err == nil || !strings.Contains(err.Error(), "empty-3") {
			t.Errorf("GOMAXPROCS %d: err = %v, want index 3's", procs, err)
		}
	}
}

// TestRunSetRejectsSharedState: a Detector or an Obs registry in the shared
// Config would be used by concurrent runs, so RunSet refuses both and points
// at Run.
func TestRunSetRejectsSharedState(t *testing.T) {
	videos := video.TestSet(3, 60)[:2]
	for name, cfg := range map[string]Config{
		"Detector": {Policy: PolicyMPDT, Detector: detect.NewSimDetector(1, 320, 180)},
		"Obs":      {Policy: PolicyMPDT, Obs: obs.NewRegistry()},
	} {
		_, err := RunSet(videos, cfg)
		if err == nil || !strings.Contains(err.Error(), "call Run per video") {
			t.Errorf("RunSet with Config.%s: err = %v", name, err)
		}
	}
}

// TestCollectTrainingSamplesMatchesAcrossProcs: the fanned-out training
// pipeline returns the serial pipeline's samples, in the same order.
func TestCollectTrainingSamplesMatchesAcrossProcs(t *testing.T) {
	base := leaktest.Count()
	videos := video.TrainingSet(2, 90)[:9]
	var samples [2][]adapt.Sample
	for k, procs := range []int{1, 4} {
		var err error
		atProcs(procs, func() { samples[k], err = CollectTrainingSamples(videos, 3) })
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
	}
	if !reflect.DeepEqual(samples[0], samples[1]) {
		t.Errorf("GOMAXPROCS 4 collected %d samples, GOMAXPROCS 1 %d, or they differ", len(samples[1]), len(samples[0]))
	}
	leaktest.Check(t, base)
}

// BenchmarkRunSetTestSet is one sim_sweep-style round: the five policies
// over video.TestSet(1, 900). Run it with -benchmem at -cpu 1,2: -cpu 1
// shows the per-frame cost, -cpu 2 adds the video fan-out.
func BenchmarkRunSetTestSet(b *testing.B) {
	videos := video.TestSet(1, 900)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range allPolicies() {
			if _, err := RunSet(videos, Config{Policy: p, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
