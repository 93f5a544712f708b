package serve

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

// moduleGoroutines counts the live goroutines this module started, read off
// their "created by" frames — exact where a NumGoroutine delta would also see
// runtime and test-harness goroutines coming and going on their own schedule.
func moduleGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by adavp/")
}

// requireModuleGoroutines polls until at most base of the module's goroutines
// are alive, failing with a full stack dump if the count never gets there.
func requireModuleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for moduleGoroutines() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines started by the module: %d still alive after 5s, baseline %d\n%s",
				moduleGoroutines(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeLeaksNoGoroutines asserts that Run tears down every goroutine it
// starts — the per-stream runners, their rt detector and tracker threads and
// supervised detect calls — both when every stream completes and when the
// run is cancelled mid-way.
func TestServeLeaksNoGoroutines(t *testing.T) {
	base := moduleGoroutines()

	if _, err := Run(context.Background(), liveSpecs(3, 60), RunConfig{Slots: 1}); err != nil {
		t.Fatal(err)
	}
	requireModuleGoroutines(t, base)

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
	requireModuleGoroutines(t, base)
}
