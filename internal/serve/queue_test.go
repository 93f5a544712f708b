package serve

import (
	"testing"
	"time"
)

func TestFairQueueOldestCalibrationFirst(t *testing.T) {
	q := NewFairQueue(8)
	for _, r := range []Request{
		{Stream: "c", Index: 2, LastCalib: 300 * time.Millisecond},
		{Stream: "a", Index: 0, LastCalib: 100 * time.Millisecond},
		{Stream: "b", Index: 1, LastCalib: 200 * time.Millisecond},
	} {
		if !q.Push(r) {
			t.Fatalf("push %q refused below the bound", r.Stream)
		}
	}
	want := []string{"a", "b", "c"}
	for _, w := range want {
		r, ok := q.Pop()
		if !ok || r.Stream != w {
			t.Fatalf("Pop() = %q,%v, want %q (oldest calibration first)", r.Stream, ok, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on an empty queue reported ok")
	}
}

func TestFairQueueFIFOAmongTies(t *testing.T) {
	q := NewFairQueue(8)
	for i := 0; i < 5; i++ {
		q.Push(Request{Index: i}) // all LastCalib zero
	}
	for i := 0; i < 5; i++ {
		r, ok := q.Pop()
		if !ok || r.Index != i {
			t.Fatalf("tie pop %d returned index %d (want FIFO order)", i, r.Index)
		}
	}
}

func TestFairQueueBoundBackpressure(t *testing.T) {
	q := NewFairQueue(2)
	if !q.Push(Request{Index: 0}) || !q.Push(Request{Index: 1}) {
		t.Fatal("pushes below the bound refused")
	}
	if q.Push(Request{Index: 2}) {
		t.Error("push above the bound accepted")
	}
	if q.Len() != 2 {
		t.Errorf("Len() = %d, want 2", q.Len())
	}
	q.Pop()
	if !q.Push(Request{Index: 3}) {
		t.Error("push refused after a pop freed space")
	}
}

func TestFairQueueInterleavedOrdering(t *testing.T) {
	// A stream that just calibrated re-enqueues with a newer timestamp and
	// must yield to every staler stream already waiting.
	q := NewFairQueue(8)
	q.Push(Request{Stream: "stale", Index: 0, LastCalib: time.Second})
	q.Push(Request{Stream: "fresh", Index: 1, LastCalib: 5 * time.Second})
	r, _ := q.Pop()
	if r.Stream != "stale" {
		t.Fatalf("first grant went to %q, want the stalest stream", r.Stream)
	}
	// stale completes at t=6s and re-enqueues; fresh (5s) must now win.
	q.Push(Request{Stream: "stale", Index: 2, LastCalib: 6 * time.Second})
	r, _ = q.Pop()
	if r.Stream != "fresh" {
		t.Fatalf("grant after recalibration went to %q, want the now-stalest stream", r.Stream)
	}
}

// TestFairnessBound pins the unbatched bound — FairnessBoundBatched at batch 1
// with no linger — on hand-counted topologies.
func TestFairnessBound(t *testing.T) {
	occ := 500 * time.Millisecond
	fi := 40 * time.Millisecond
	// Single stream, single slot: one residual + own occupancy.
	if got, want := FairnessBoundBatched(1, 1, 1, occ, fi, 0), 2*occ+fi; got != want {
		t.Errorf("bound(1,1) = %v, want %v", got, want)
	}
	// 8 streams, 2 slots: ceil(7/2)=4 rounds + residual + own.
	if got, want := FairnessBoundBatched(8, 2, 1, occ, fi, 0), 6*occ+fi; got != want {
		t.Errorf("bound(8,2) = %v, want %v", got, want)
	}
	// More slots than other streams: one round + residual + own.
	if got, want := FairnessBoundBatched(3, 8, 1, occ, fi, 0), 3*occ+fi; got != want {
		t.Errorf("bound(3,8) = %v, want %v", got, want)
	}
	// Degenerate inputs are clamped, not panicking.
	if FairnessBoundBatched(0, 0, 1, occ, fi, 0) <= 0 {
		t.Error("clamped bound not positive")
	}
}
