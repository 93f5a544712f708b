package rt

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/fault"
	"adavp/internal/obs"
	"adavp/internal/video"
)

// TestLiveRunPublishesMetrics drives the acceptance path of the live
// observability layer: a supervised adaptive run with a registry attached
// must publish per-stage latency histograms, the guard health gauge and the
// frame counters, and the registry must be scrapeable over HTTP while the
// pipeline owns it.
func TestLiveRunPublishesMetrics(t *testing.T) {
	v := video.GenerateKind("obs", video.KindRacetrack, 11, 240)
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := obs.StartServer(ctx, "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		Adaptation: adapt.DefaultModel(),
		TimeScale:  0.002,
		Seed:       11,
		Obs:        reg,
		Fault:      &fault.Profile{Rate: 0.2, Seed: 4, Kinds: []fault.Kind{fault.KindPanic}},
	}
	if _, err := Run(ctx, v, cfg); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE " + obs.MetricStageLatency + " histogram",
		`stage="detect"`,
		`stage="track"`,
		"# TYPE " + obs.MetricGuardHealth + " gauge",
		"# TYPE " + obs.MetricFrames + " counter",
		"# TYPE " + obs.MetricCycles + " counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q; got:\n%s", want, text)
		}
	}

	snap := reg.Snapshot()
	var frames int64
	for _, c := range snap.Counters {
		if c.Name == obs.MetricFrames {
			frames += c.Value
		}
	}
	if frames != int64(v.NumFrames()) {
		t.Errorf("frame counters sum to %d, want %d", frames, v.NumFrames())
	}
}

// TestRunPublishPathAllocatesNothingUninstrumented pins what resolving the
// series once buys: with no registry attached, everything the detector and
// tracker threads publish per frame and per cycle — stream label included —
// is a nil check. (Looking each series up per observation built the label
// slice first, one allocation per call.)
func TestRunPublishPathAllocatesNothingUninstrumented(t *testing.T) {
	p := &pipeline{cfg: Config{StreamID: "s0"}}
	p.resolveSeries()
	if len(p.stream) != 1 || p.stream[0] != obs.L("stream", "s0") {
		t.Fatalf("stream label set = %v", p.stream)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.trackH.ObserveDuration(time.Millisecond)
		p.overlayH.ObserveDuration(time.Millisecond)
		p.slotWaitH.ObserveDuration(time.Millisecond)
		p.slotExecH.ObserveDuration(time.Millisecond)
		p.observeDetect(core.Setting512, time.Millisecond)
		p.cyclesC.Inc()
		p.deferredC.Inc()
		adapt.PublishDecision(p.cfg.Obs, core.Setting512, core.Setting416, 3, time.Millisecond, time.Second, p.stream...)
	})
	if allocs != 0 {
		t.Errorf("un-instrumented publish path allocates %.0f times per pass, want 0", allocs)
	}
}
