package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"adavp/internal/obs"
	"adavp/internal/serve"
	"adavp/internal/video"
)

// testStreams builds n streams over distinct scenarios and seeds so their
// schedules genuinely diverge (different velocities, different adaptation
// decisions).
func testStreams(n int) []MultiStream {
	kinds := []video.Kind{video.KindHighway, video.KindIntersection, video.KindCityStreet}
	streams := make([]MultiStream, n)
	for i := range streams {
		id := fmt.Sprintf("s%d", i)
		streams[i] = MultiStream{
			ID:    id,
			Video: video.GenerateKind(id, kinds[i%len(kinds)], uint64(i+1), 300),
			Config: Config{
				Policy: PolicyAdaVP,
				Seed:   uint64(100 + i),
			},
		}
	}
	return streams
}

// TestRunMultiDeterministic is the acceptance test for the multi-stream
// scheduler: 8 AdaVP streams over 2 shared detector slots, run twice with
// the same seeds, must produce byte-identical observability snapshots and
// identical scheduling outcomes.
func TestRunMultiDeterministic(t *testing.T) {
	run := func() (*MultiResult, []byte) {
		reg := obs.NewRegistry()
		res, err := RunMulti(testStreams(8), MultiConfig{Slots: 2, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		return res, snapshotBytes(t, reg)
	}
	resA, snapA := run()
	resB, snapB := run()
	if !bytes.Equal(snapA, snapB) {
		t.Error("two identical multi-stream runs produced different snapshots")
	}
	if len(snapA) == 0 {
		t.Error("instrumented multi-stream run produced an empty snapshot")
	}
	for i := range resA.Streams {
		a, b := resA.Streams[i], resB.Streams[i]
		if a.Grants != b.Grants || a.Deferred != b.Deferred ||
			a.MaxWait != b.MaxWait || a.MaxCalibAge != b.MaxCalibAge ||
			a.Result.Accuracy != b.Result.Accuracy || a.Result.MeanF1 != b.Result.MeanF1 {
			t.Errorf("stream %s: outcomes differ between identical runs:\n%+v\n%+v", a.ID, a, b)
		}
	}
	if resA.MaxQueueDepth != resB.MaxQueueDepth || resA.MaxOccupancy != resB.MaxOccupancy {
		t.Errorf("aggregate outcomes differ: %+v vs %+v", resA, resB)
	}
	// With 8 streams over 2 slots the queue must actually have queued.
	if resA.MaxQueueDepth < 2 {
		t.Errorf("MaxQueueDepth = %d; 8 streams over 2 slots should have queued", resA.MaxQueueDepth)
	}
}

// TestRunMultiFairnessBound asserts the documented no-starvation guarantee:
// under oldest-calibration-first scheduling, no stream's calibration age ever
// exceeds the unbatched bound — serve.FairnessBoundBatched at batch 1, no
// linger — for the run's observed maximum slot occupancy.
func TestRunMultiFairnessBound(t *testing.T) {
	streams := testStreams(8)
	res, err := RunMulti(streams, MultiConfig{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	var frameInterval time.Duration
	for _, s := range streams {
		if fi := s.Video.FrameInterval(); fi > frameInterval {
			frameInterval = fi
		}
	}
	bound := serve.FairnessBoundBatched(len(streams), 2, 1, res.MaxOccupancy, frameInterval, 0)
	for _, s := range res.Streams {
		if s.MaxCalibAge > bound {
			t.Errorf("stream %s: MaxCalibAge %v exceeds fairness bound %v (maxOccupancy %v)",
				s.ID, s.MaxCalibAge, bound, res.MaxOccupancy)
		}
		if s.MaxCalibAge == 0 {
			t.Errorf("stream %s: MaxCalibAge = 0 — it never calibrated", s.ID)
		}
	}
}

// TestRunMultiPerStreamSeries checks the per-stream observability contract:
// every stream's series are present under its stream=<id> label and agree
// with that stream's own result — cycles counter vs recorded cycles,
// slot-wait sample count vs grants, deferral counter vs deferrals.
func TestRunMultiPerStreamSeries(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunMulti(testStreams(8), MultiConfig{Slots: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge(obs.MetricStreams).Value(); got != 8 {
		t.Errorf("streams gauge = %v, want 8", got)
	}
	for _, s := range res.Streams {
		ls := obs.L("stream", s.ID)
		if got := reg.Counter(obs.MetricCycles, ls).Value(); got != int64(len(s.Result.Run.Cycles)) {
			t.Errorf("stream %s: cycles counter = %d, want %d", s.ID, got, len(s.Result.Run.Cycles))
		}
		if got := reg.Histogram(obs.MetricSlotWait, obs.DefLatencyBuckets, ls).Count(); got != int64(s.Grants) {
			t.Errorf("stream %s: slot-wait samples = %d, want %d grants", s.ID, got, s.Grants)
		}
		if got := reg.Counter(obs.MetricDetectDeferred, ls).Value(); got != int64(s.Deferred) {
			t.Errorf("stream %s: deferred counter = %d, want %d", s.ID, got, s.Deferred)
		}
		// Frame counters: the labeled detector-source counter must equal the
		// stream's own detector-sourced outputs.
		var detected int64
		for _, out := range s.Result.Run.Outputs {
			if out.Source.String() == "detector" {
				detected++
			}
		}
		if got := reg.Counter(obs.MetricFrames, obs.L("source", "detector"), ls).Value(); got != detected {
			t.Errorf("stream %s: frames{source=detector} = %d, want %d", s.ID, got, detected)
		}
	}
}

// TestRunMultiSingleStreamMatchesRun: N=1, K=1 is the single-stream special
// case — RunMulti must reproduce Run exactly (same schedule, same rng draws,
// same evaluation).
func TestRunMultiSingleStreamMatchesRun(t *testing.T) {
	v := testVideo(t)
	single, err := Run(v, Config{Policy: PolicyAdaVP, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMulti(
		[]MultiStream{{ID: "only", Video: v, Config: Config{Policy: PolicyAdaVP, Seed: 11}}},
		MultiConfig{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := multi.Streams[0].Result
	if m.Accuracy != single.Accuracy || m.MeanF1 != single.MeanF1 {
		t.Errorf("single-stream RunMulti evaluation differs: %v/%v vs %v/%v",
			m.Accuracy, m.MeanF1, single.Accuracy, single.MeanF1)
	}
	if len(m.Run.Cycles) != len(single.Run.Cycles) {
		t.Errorf("cycles: %d vs %d", len(m.Run.Cycles), len(single.Run.Cycles))
	}
	if m.Run.Duration != single.Run.Duration {
		t.Errorf("duration: %v vs %v", m.Run.Duration, single.Run.Duration)
	}
	if len(m.Run.Switches) != len(single.Run.Switches) {
		t.Errorf("switches: %d vs %d", len(m.Run.Switches), len(single.Run.Switches))
	}
	if multi.Streams[0].MaxWait != 0 {
		t.Errorf("single stream on its own slot waited %v, want 0", multi.Streams[0].MaxWait)
	}
}

// TestRunMultiBackpressure: a queue bound smaller than the stream count
// forces deferrals — streams keep making progress (all complete, outputs
// full-length) while the scheduler reports the refused requests.
func TestRunMultiBackpressure(t *testing.T) {
	streams := testStreams(4)
	res, err := RunMulti(streams, MultiConfig{Slots: 1, QueueBound: 1})
	if err != nil {
		t.Fatal(err)
	}
	totalDeferred := 0
	for i, s := range res.Streams {
		totalDeferred += s.Deferred
		if s.Result == nil || len(s.Result.Run.Outputs) != streams[i].Video.NumFrames() {
			t.Fatalf("stream %s: incomplete result under backpressure", s.ID)
		}
		if s.Result.MeanF1 <= 0 {
			t.Errorf("stream %s: MeanF1 = %v, want > 0", s.ID, s.Result.MeanF1)
		}
	}
	if totalDeferred == 0 {
		t.Error("queue bound 1 with 4 streams never deferred a request")
	}
	if res.MaxQueueDepth > 1 {
		t.Errorf("MaxQueueDepth = %d exceeds the configured bound 1", res.MaxQueueDepth)
	}
}

// TestRunMultiDeferredCountsFramesNotRetries pins the deferral-accounting
// fix: a pending detection refused across consecutive retry attempts is ONE
// deferred detection. The pre-fix scheduler incremented the counter on every
// refused attempt — this exact scenario reported 164–189 deferrals per
// stream (retry counts) instead of the 8–9 deferred detections below — so
// any regression to retry counting snaps the pinned values immediately. The
// published adavp_detector_deferred_total series must agree snapshot-exactly
// with the per-stream outcome, and no stream can defer more detections than
// it has grant opportunities (one open streak per grant, plus the run tail).
func TestRunMultiDeferredCountsFramesNotRetries(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunMulti(testStreams(4), MultiConfig{Slots: 1, QueueBound: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"s0": 8, "s1": 8, "s2": 9, "s3": 8}
	for _, s := range res.Streams {
		if s.Deferred != want[s.ID] {
			t.Errorf("stream %s: Deferred = %d, want %d deferred detections", s.ID, s.Deferred, want[s.ID])
		}
		if s.Deferred > s.Grants+1 {
			t.Errorf("stream %s: Deferred %d exceeds Grants+1 (%d) — counting retries, not frames",
				s.ID, s.Deferred, s.Grants+1)
		}
		if got := reg.Counter(obs.MetricDetectDeferred, obs.L("stream", s.ID)).Value(); got != int64(s.Deferred) {
			t.Errorf("stream %s: deferred counter = %d, want %d", s.ID, got, s.Deferred)
		}
	}
}

// TestRunMultiPipelineDepthAccounting pins the staged-prefetch model's two
// contracts: it is pure accounting (the schedule with PipelineDepth set is
// identical to the schedule without — same grants, deferrals, waits,
// calibration ages, evaluation), and the accounting itself is deterministic
// and coherent — prefetched frames only accrue when requests actually
// waited, never more than depth per grant, the published per-stream counter
// agrees with the outcome, and the slot-utilization gauge matches the
// result on both runs.
func TestRunMultiPipelineDepthAccounting(t *testing.T) {
	run := func(depth int) (*MultiResult, *obs.Registry) {
		reg := obs.NewRegistry()
		res, err := RunMulti(testStreams(8), MultiConfig{Slots: 2, Obs: reg, PipelineDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg
	}
	base, _ := run(0)
	piped, reg := run(3)

	banked := 0
	for i := range base.Streams {
		b, p := base.Streams[i], piped.Streams[i]
		if b.Grants != p.Grants || b.Deferred != p.Deferred || b.MaxWait != p.MaxWait ||
			b.MaxCalibAge != p.MaxCalibAge || b.Result.Accuracy != p.Result.Accuracy ||
			b.Result.MeanF1 != p.Result.MeanF1 {
			t.Errorf("stream %s: PipelineDepth changed the schedule:\n%+v\n%+v", b.ID, b, p)
		}
		if b.PrefetchedWhileWaiting != 0 {
			t.Errorf("stream %s: banked %d prefetched frames with the model disabled", b.ID, b.PrefetchedWhileWaiting)
		}
		if p.PrefetchedWhileWaiting > 3*p.Grants {
			t.Errorf("stream %s: %d prefetched frames over %d grants exceeds depth 3 per grant",
				p.ID, p.PrefetchedWhileWaiting, p.Grants)
		}
		if got := reg.Counter(obs.MetricPrefetchedWaiting, obs.L("stream", p.ID)).Value(); got != int64(p.PrefetchedWhileWaiting) {
			t.Errorf("stream %s: prefetched counter = %d, want %d", p.ID, got, p.PrefetchedWhileWaiting)
		}
		banked += p.PrefetchedWhileWaiting
	}
	// 8 streams contending for 2 slots wait often; the model must bank some
	// overlap or the pipelined column has nothing to show.
	if banked == 0 {
		t.Error("8 streams over 2 slots banked no prefetched frames while waiting")
	}
	if base.SlotUtilization != piped.SlotUtilization {
		t.Errorf("slot utilization diverged: %v vs %v", base.SlotUtilization, piped.SlotUtilization)
	}
	if piped.SlotUtilization <= 0 || piped.SlotUtilization > 1 {
		t.Errorf("slot utilization %v outside (0, 1]", piped.SlotUtilization)
	}
	if got := reg.Gauge(obs.MetricSlotUtilization).Value(); got != piped.SlotUtilization {
		t.Errorf("utilization gauge = %v, want %v", got, piped.SlotUtilization)
	}
}

// TestRunMultiValidation: RunMulti rejects malformed stream sets — the
// stream-set rows through serve.CheckStreams — under its own sim: prefix.
func TestRunMultiValidation(t *testing.T) {
	v := testVideo(t)
	good := MultiStream{ID: "a", Video: v, Config: Config{Policy: PolicyAdaVP}}
	cases := []struct {
		name    string
		streams []MultiStream
	}{
		{"empty set", nil},
		{"empty id", []MultiStream{{Video: v, Config: Config{Policy: PolicyAdaVP}}}},
		{"duplicate id", []MultiStream{good, good}},
		{"nil video", []MultiStream{{ID: "b", Config: Config{Policy: PolicyAdaVP}}}},
		{"sequential policy", []MultiStream{{ID: "c", Video: v, Config: Config{Policy: PolicyMARLIN}}}},
	}
	for _, tc := range cases {
		_, err := RunMulti(tc.streams, MultiConfig{})
		if err == nil || !strings.HasPrefix(err.Error(), "sim: ") {
			t.Errorf("%s: RunMulti returned %v, want a sim: error", tc.name, err)
		}
	}
}
