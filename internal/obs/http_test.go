package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adavp/internal/leaktest"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter(MetricFrames, L("source", "detector")).Add(10)
	r.Counter(MetricFrames, L("source", "tracker")).Add(32)
	r.Gauge(MetricGuardHealth).Set(0)
	r.StageHistogram(StageDetect, L("setting", "YOLOv3-512"), L("health", "healthy")).ObserveDuration(120 * time.Millisecond)
	r.StageHistogram(StageTrack).ObserveDuration(9 * time.Millisecond)
	r.Record(3*time.Second, "adapt", "YOLOv3-512->YOLOv3-416", "switch")
	return r
}

func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(testRegistry()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE adavp_frames_total counter",
		`adavp_frames_total{source="detector"} 10`,
		"# TYPE adavp_guard_health gauge",
		"# TYPE adavp_stage_latency_seconds histogram",
		`adavp_stage_latency_seconds_bucket{health="healthy",setting="YOLOv3-512",stage="detect",le="0.25"} 1`,
		`adavp_stage_latency_seconds_bucket{stage="track",le="+Inf"} 1`,
		`adavp_stage_latency_seconds_count{stage="track"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestDebugVarsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(testRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	if len(snap.Counters) != 2 || len(snap.Histograms) != 2 || len(snap.Events) != 1 {
		t.Errorf("snapshot shape: %d counters, %d hists, %d events",
			len(snap.Counters), len(snap.Histograms), len(snap.Events))
	}
	if snap.Events[0].Component != "adapt" || snap.Events[0].At != 3*time.Second {
		t.Errorf("event = %+v", snap.Events[0])
	}
}

func TestPprofEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(testRegistry()))
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s returned %d", path, resp.StatusCode)
		}
	}
}

func TestStartServerLifecycle(t *testing.T) {
	base := leaktest.Count()
	ctx, cancel := context.WithCancel(context.Background())
	s, err := StartServer(ctx, "127.0.0.1:0", testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	cancel()
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down after cancel")
	}
	leaktest.Check(t, base)
}
