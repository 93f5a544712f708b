package serve

import (
	"context"
	"testing"
	"time"

	"adavp/internal/leaktest"
)

// TestServeLeaksNoGoroutines asserts that Run tears down every goroutine it
// starts — the per-stream runners, their rt detector and tracker threads and
// supervised detect calls — both when every stream completes and when the
// run is cancelled mid-way.
func TestServeLeaksNoGoroutines(t *testing.T) {
	base := leaktest.Count()

	if _, err := Run(context.Background(), liveSpecs(3, 60), RunConfig{Slots: 1}); err != nil {
		t.Fatal(err)
	}
	leaktest.Check(t, base)

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	res, err := Run(ctx, liveSpecs(3, 300), RunConfig{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if res.Streams[0].Err == nil {
		t.Fatal("the cancelled run's first stream finished before the cancellation")
	}
	leaktest.Check(t, base)
}
