package detect

import (
	"context"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/guard"
	"adavp/internal/video"
)

// TestAbandonedDetectDropsScratch is the -race regression test for the PR 2
// hazard note "watchdog-abandoned Detect may race its retry": it abandons a
// supervised Detect via the guard watchdog and immediately retries while the
// zombie call is still running. The abandoned call must drop its pooled
// blobScratch (not Put it back), so the two concurrent calls can never share
// buffers — under -race, any sharing fails the test; the drop counter proves
// the release path actually ran.
func TestAbandonedDetectDropsScratch(t *testing.T) {
	v := video.GenerateKind("hw", video.KindHighway, 5, 10)
	frame := v.FrameWithPixels(4)
	d := NewBlobDetector()
	want := d.Detect(frame, core.Setting416)

	sup := guard.New(guard.Config{})
	release := make(chan struct{})
	done := make(chan struct{})
	drops0 := blobDrops.Load()
	_, outcome := sup.Call(5*time.Millisecond, func(ctx context.Context) []core.Detection {
		defer close(done)
		<-release // hold the call past its watchdog deadline
		return d.DetectCtx(ctx, frame, core.Setting416)
	})
	if outcome != guard.Timeout {
		t.Fatalf("outcome = %v, want Timeout", outcome)
	}

	// Unblock the zombie and retry at once, so the abandoned DetectCtx and
	// the retry overlap — exactly the schedule the supervised pipeline
	// produces after a timeout.
	close(release)
	got := d.Detect(frame, core.Setting416)
	<-done

	if len(got) != len(want) {
		t.Fatalf("retry returned %d detections, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("retry detection %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if drops := blobDrops.Load() - drops0; drops < 1 {
		t.Fatalf("abandoned DetectCtx dropped %d scratches, want >= 1", drops)
	}
}
