package video_test

import (
	"runtime"
	"testing"

	"adavp/internal/sim"
	"adavp/internal/video"
)

// TestModelModeBuildsNoBackground: the static camera's background raster is
// built by the first pixel render, never by Generate, so Generate plus a
// model-mode sim.Run leave it unbuilt and together allocate fewer bytes than
// one raster at the benchmark's resolution.
func TestModelModeBuildsNoBackground(t *testing.T) {
	p := video.ScenarioParams(video.KindHighway)
	p.W, p.H = 704, 396
	cfg := sim.Config{Policy: sim.PolicyAdaVP, Seed: 1}
	// Warm what a first run builds once per process (the pretrained
	// adaptation model).
	if _, err := sim.Run(video.Generate("warm", p, 2, 30), cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v := video.Generate("model", p, 1, 90)
	_, err := sim.Run(v, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	static, built := video.StaticBackground(v)
	if !static {
		t.Fatal("highway camera is not static: the test no longer covers the background cache")
	}
	if built {
		t.Error("model-mode run built the background raster")
	}
	raster := uint64(p.W * p.H * 4)
	if got := after.TotalAlloc - before.TotalAlloc; got >= raster {
		t.Errorf("Generate + model-mode sim.Run allocated %d bytes, at least one %dx%d raster (%d)", got, p.W, p.H, raster)
	}
}
