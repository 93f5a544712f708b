package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/guard"
	"adavp/internal/obs"
	"adavp/internal/rt"
	"adavp/internal/track"
	"adavp/internal/video"
)

func TestPoolGrantAndRelease(t *testing.T) {
	p := NewBatchPool(1, 4, BatchConfig{Size: 1}, nil)
	ctx := context.Background()
	rel1, err := p.Acquire(ctx, "a", core.Setting512, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Second acquire must block until the first releases.
	granted := make(chan struct{})
	go func() {
		rel2, err := p.Acquire(ctx, "b", core.Setting512, time.Second)
		if err != nil {
			t.Error(err)
			close(granted)
			return
		}
		rel2()
		close(granted)
	}()
	select {
	case <-granted:
		t.Fatal("second acquire succeeded while the slot was held")
	case <-time.After(20 * time.Millisecond):
	}
	rel1()
	select {
	case <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("release never granted the waiter")
	}
	// Double release must be a no-op, not a second free slot.
	rel1()
	if p.QueueDepth() != 0 {
		t.Errorf("queue depth %d after drain", p.QueueDepth())
	}
}

func TestPoolBackpressure(t *testing.T) {
	p := NewBatchPool(1, 1, BatchConfig{Size: 1}, obs.NewRegistry())
	ctx := context.Background()
	rel, err := p.Acquire(ctx, "holder", core.Setting512, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits the bound...
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		r, err := p.Acquire(ctx, "waiter", core.Setting512, time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		r()
	}()
	deadline := time.Now().Add(2 * time.Second)
	for p.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	// ...the next request must be refused, not queued.
	if _, err := p.Acquire(ctx, "overflow", core.Setting512, 2*time.Second); err != ErrQueueFull {
		t.Fatalf("Acquire over the bound returned %v, want ErrQueueFull", err)
	}
	rel()
	<-waiterDone
	requireDrained(t, p)
}

func TestPoolCancelledWaiterSkipped(t *testing.T) {
	p := NewBatchPool(1, 4, BatchConfig{Size: 1}, nil)
	ctx := context.Background()
	rel, err := p.Acquire(ctx, "holder", core.Setting512, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue a waiter with the oldest calibration, then cancel it.
	cancelCtx, cancel := context.WithCancel(ctx)
	cancelledDone := make(chan error, 1)
	go func() {
		_, err := p.Acquire(cancelCtx, "doomed", core.Setting512, 0)
		cancelledDone <- err
	}()
	for p.QueueDepth() != 1 {
		time.Sleep(time.Millisecond)
	}
	// A second, staler-than-nobody waiter behind it.
	survivorDone := make(chan struct{})
	go func() {
		defer close(survivorDone)
		r, err := p.Acquire(ctx, "survivor", core.Setting512, time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		r()
	}()
	for p.QueueDepth() != 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-cancelledDone; err == nil {
		t.Fatal("cancelled Acquire returned nil error")
	}
	// Releasing must skip the cancelled front entry and grant the survivor.
	rel()
	select {
	case <-survivorDone:
	case <-time.After(2 * time.Second):
		t.Fatal("release never reached the waiter behind the cancelled entry")
	}
	requireDrained(t, p)
}

// liveSpecs builds n live stream specs over distinct scenarios and seeds.
func liveSpecs(n, frames int) []StreamSpec {
	kinds := []video.Kind{video.KindHighway, video.KindIntersection, video.KindCityStreet}
	specs := make([]StreamSpec, n)
	for i := range specs {
		id := fmt.Sprintf("s%d", i)
		specs[i] = StreamSpec{
			ID:    id,
			Video: video.GenerateKind(id, kinds[i%len(kinds)], uint64(i+1), frames),
			Config: rt.Config{
				TimeScale: 0.01,
				Seed:      uint64(100 + i),
			},
		}
	}
	return specs
}

// TestServeFourStreamsOneSlot is the live acceptance scenario: four streams
// contending for a single detector slot (run under -race by make race). All
// streams must complete with full-length outputs, nonzero cycles, and their
// per-stream series present in the shared registry.
func TestServeFourStreamsOneSlot(t *testing.T) {
	reg := obs.NewRegistry()
	specs := liveSpecs(4, 300)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := Run(ctx, specs, RunConfig{Slots: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge(obs.MetricStreams).Value(); got != 4 {
		t.Errorf("streams gauge = %v, want 4", got)
	}
	for i, s := range res.Streams {
		if s.Err != nil {
			t.Fatalf("stream %s failed: %v", s.ID, s.Err)
		}
		if len(s.Result.Outputs) != specs[i].Video.NumFrames() {
			t.Errorf("stream %s: %d outputs for %d frames", s.ID, len(s.Result.Outputs), specs[i].Video.NumFrames())
		}
		if s.Result.Cycles < 1 {
			t.Errorf("stream %s completed no detection cycles", s.ID)
		}
		ls := obs.L("stream", s.ID)
		if got := reg.Counter(obs.MetricCycles, ls).Value(); got != int64(s.Result.Cycles) {
			t.Errorf("stream %s: labeled cycles counter = %d, want %d", s.ID, got, s.Result.Cycles)
		}
		if got := reg.Histogram(obs.MetricSlotWait, obs.DefLatencyBuckets, ls).Count(); got < int64(s.Result.Cycles) {
			t.Errorf("stream %s: %d slot-wait samples for %d cycles", s.ID, got, s.Result.Cycles)
		}
	}
	// With one slot shared four ways, the queue must have been used; by the
	// end it must have drained.
	if got := reg.Gauge(obs.MetricQueueDepth).Value(); got != 0 {
		t.Errorf("queue depth gauge = %v after all streams finished, want 0", got)
	}
}

// alwaysPanicDetector drives the guard's escalation path on every call.
type alwaysPanicDetector struct{}

func (alwaysPanicDetector) Detect(core.Frame, core.Setting) []core.Detection {
	panic("serve test: injected detector panic")
}

// TestServeSharedDowngradeBudget: two streams with permanently panicking
// detectors share a downgrade budget of 1 — exactly one downgrade may happen
// across the whole run, not one per stream.
func TestServeSharedDowngradeBudget(t *testing.T) {
	specs := liveSpecs(2, 150)
	for i := range specs {
		specs[i].Config.Detector = alwaysPanicDetector{}
		specs[i].Config.Guard = guard.Config{
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := Run(ctx, specs, RunConfig{Slots: 1, Budget: guard.NewEscalationBudget(1)})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Streams {
		if s.Err != nil {
			t.Fatalf("stream %s failed: %v", s.ID, s.Err)
		}
		if s.Result.Faults.Panics == 0 {
			t.Errorf("stream %s observed no panics from an always-panicking detector", s.ID)
		}
		total += s.Result.Faults.Downgrades
	}
	if total != 1 {
		t.Errorf("%d downgrades across streams, want exactly 1 (shared budget)", total)
	}
}

// TestServeBackpressureDefers: a queue bound of 1 with four streams on one
// slot must refuse some requests — the refused streams defer and keep going.
func TestServeBackpressureDefers(t *testing.T) {
	specs := liveSpecs(4, 300)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := Run(ctx, specs, RunConfig{Slots: 1, QueueBound: 1})
	if err != nil {
		t.Fatal(err)
	}
	deferred := 0
	for i, s := range res.Streams {
		if s.Err != nil {
			t.Fatalf("stream %s failed: %v", s.ID, s.Err)
		}
		if len(s.Result.Outputs) != specs[i].Video.NumFrames() {
			t.Errorf("stream %s: incomplete outputs under backpressure", s.ID)
		}
		deferred += s.Result.Deferred
	}
	if deferred == 0 {
		t.Error("queue bound 1 over 4 streams never deferred a detection")
	}
}

// TestServePipelinedPrefetchWhileWaiting is the serve half of the staged
// pipeline: with RunConfig.PipelineDepth applied to pixel-mode streams
// contending for one slot, a stream's tracker keeps stepping its previous
// cycle while the detector thread is blocked in Pool.Acquire, and the
// tracker's ring renders the planned frames ahead of it — builds that
// complete during the wait are banked in the per-stream
// prefetched-while-waiting counter. A cycle reaches the tracker at the next
// grant, so only a stream that runs three or more detections can bank; the
// videos are long enough for that even under the race detector. The ring
// never touches the pool, so the scheduling contract is unchanged: every
// stream still completes full-length outputs and the queue drains.
func TestServePipelinedPrefetchWhileWaiting(t *testing.T) {
	reg := obs.NewRegistry()
	kinds := []video.Kind{video.KindHighway, video.KindIntersection, video.KindCityStreet}
	specs := make([]StreamSpec, 3)
	for i := range specs {
		id := fmt.Sprintf("p%d", i)
		specs[i] = StreamSpec{
			ID:    id,
			Video: video.GenerateKind(id, kinds[i], uint64(i+1), 360),
			Config: rt.Config{
				TimeScale: 0.01,
				Seed:      uint64(200 + i),
				PixelMode: true,
				Detector:  detect.NewBlobDetector(),
				NewTracker: func(uint64) track.Tracker {
					return track.NewPixelTracker()
				},
			},
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := Run(ctx, specs, RunConfig{Slots: 1, Obs: reg, PipelineDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	banked := 0
	for i, s := range res.Streams {
		if s.Err != nil {
			t.Fatalf("stream %s failed: %v", s.ID, s.Err)
		}
		if len(s.Result.Outputs) != specs[i].Video.NumFrames() {
			t.Errorf("stream %s: %d outputs for %d frames", s.ID, len(s.Result.Outputs), specs[i].Video.NumFrames())
		}
		if got := reg.Counter(obs.MetricPrefetchedWaiting, obs.L("stream", s.ID)).Value(); got != int64(s.Result.PrefetchedWhileWaiting) {
			t.Errorf("stream %s: prefetched counter = %d, want %d", s.ID, got, s.Result.PrefetchedWhileWaiting)
		}
		banked += s.Result.PrefetchedWhileWaiting
	}
	if banked == 0 {
		t.Error("three pixel streams over one slot banked no prefetched frames while waiting")
	}
	if got := reg.Gauge(obs.MetricQueueDepth).Value(); got != 0 {
		t.Errorf("queue depth gauge = %v after all streams finished, want 0", got)
	}
}

// TestServeValidation: Run rejects malformed stream sets through
// CheckStreams, under its own serve: prefix.
func TestServeValidation(t *testing.T) {
	v := video.GenerateKind("v", video.KindHighway, 1, 50)
	good := StreamSpec{ID: "a", Video: v}
	cases := []struct {
		name    string
		streams []StreamSpec
	}{
		{"empty set", nil},
		{"empty id", []StreamSpec{{Video: v}}},
		{"duplicate id", []StreamSpec{good, good}},
		{"nil video", []StreamSpec{{ID: "b"}}},
	}
	for _, tc := range cases {
		_, err := Run(context.Background(), tc.streams, RunConfig{})
		if err == nil || !strings.HasPrefix(err.Error(), "serve: ") {
			t.Errorf("%s: Run returned %v, want a serve: error", tc.name, err)
		}
	}
}
