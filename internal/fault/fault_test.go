package fault

import (
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/geom"
	"adavp/internal/track"
)

// fixedDetector returns one well-formed detection per call and counts calls.
type fixedDetector struct {
	calls int
}

func (d *fixedDetector) Detect(core.Frame, core.Setting) []core.Detection {
	d.calls++
	return []core.Detection{{
		Class: core.ClassCar,
		Box:   geom.Rect{Left: 10, Top: 10, W: 20, H: 12},
		Score: 0.9,
	}}
}

// fixedTracker echoes its init detections with a constant velocity.
type fixedTracker struct {
	dets  []core.Detection
	steps int
}

func (t *fixedTracker) Init(_ core.Frame, dets []core.Detection) int {
	t.dets = dets
	return len(dets)
}

func (t *fixedTracker) Step(core.Frame) ([]core.Detection, float64) {
	t.steps++
	return t.dets, 2.5
}

func TestScheduleDeterministic(t *testing.T) {
	p := Profile{Rate: 0.3, Burst: 2, Seed: 42}.withDefaults()
	a := newSchedule(p, "detector")
	b := newSchedule(p, "detector")
	faulted := 0
	for i := 0; i < 1000; i++ {
		ka, fa := a.decide(i)
		kb, fb := b.decide(i)
		if ka != kb || fa != fb {
			t.Fatalf("call %d: schedules diverge: (%v,%v) vs (%v,%v)", i, ka, fa, kb, fb)
		}
		if fa {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("rate 0.3 over 1000 calls injected nothing")
	}
	// Different component tags must yield different streams.
	c := newSchedule(p, "tracker")
	same := 0
	for i := 0; i < 1000; i++ {
		_, fa := a.decide(i)
		_, fc := c.decide(i)
		if fa == fc {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("detector and tracker schedules are identical")
	}
}

func TestScheduleBurst(t *testing.T) {
	p := Profile{Rate: 0.25, Burst: 4, Seed: 7}.withDefaults()
	s := newSchedule(p, "detector")
	// All calls within one block must agree.
	for block := 0; block < 200; block++ {
		k0, f0 := s.decide(block * 4)
		for off := 1; off < 4; off++ {
			k, f := s.decide(block*4 + off)
			if k != k0 || f != f0 {
				t.Fatalf("block %d: call %d disagrees with block head", block, block*4+off)
			}
		}
	}
}

func TestScheduleRateZeroAndOne(t *testing.T) {
	s0 := newSchedule(Profile{Rate: 0, Seed: 1}.withDefaults(), "detector")
	s1 := newSchedule(Profile{Rate: 1, Seed: 1}.withDefaults(), "detector")
	for i := 0; i < 100; i++ {
		if _, f := s0.decide(i); f {
			t.Fatalf("rate 0 faulted call %d", i)
		}
		if _, f := s1.decide(i); !f {
			t.Fatalf("rate 1 skipped call %d", i)
		}
	}
}

func TestParseKinds(t *testing.T) {
	all, err := ParseKinds("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != int(numKinds) {
		t.Fatalf("empty string: got %d kinds, want %d", len(all), int(numKinds))
	}
	got, err := ParseKinds(" hang , panic ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != KindHang || got[1] != KindPanic {
		t.Fatalf("ParseKinds(hang,panic) = %v", got)
	}
	if _, err := ParseKinds("meltdown"); err == nil {
		t.Fatal("unknown kind accepted")
	} else if !strings.Contains(err.Error(), "meltdown") {
		t.Fatalf("error does not name the bad kind: %v", err)
	}
}

func TestDetectorRateZeroPassesThrough(t *testing.T) {
	inner := &fixedDetector{}
	d := NewDetector(inner, Profile{Rate: 0, Seed: 1}, Live)
	for i := 0; i < 50; i++ {
		dets := d.Detect(core.Frame{}, core.Setting512)
		if len(dets) != 1 {
			t.Fatalf("call %d: got %d detections, want 1", i, len(dets))
		}
	}
	if inner.calls != 50 {
		t.Fatalf("inner called %d times, want 50", inner.calls)
	}
	if n := len(d.Events()); n != 0 {
		t.Fatalf("rate 0 logged %d events", n)
	}
}

func TestDetectorInjectsAndRecords(t *testing.T) {
	inner := &fixedDetector{}
	d := NewDetector(inner, Profile{Rate: 1, Kinds: []Kind{KindEmpty}, Seed: 3}, Live)
	for i := 0; i < 10; i++ {
		if dets := d.Detect(core.Frame{}, core.Setting512); dets != nil {
			t.Fatalf("call %d: empty fault returned %d detections", i, len(dets))
		}
	}
	if inner.calls != 0 {
		t.Fatalf("inner reached %d times under rate-1 empty faults", inner.calls)
	}
	if got := d.Counts()[KindEmpty]; got != 10 {
		t.Fatalf("Counts[empty] = %d, want 10", got)
	}
	evs := d.Events()
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Component != "detector" || ev.Call != i || ev.Kind != KindEmpty {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

func TestDetectorGarbageAndNaNAreMalformed(t *testing.T) {
	for _, kind := range []Kind{KindGarbage, KindNaN} {
		d := NewDetector(&fixedDetector{}, Profile{Rate: 1, Kinds: []Kind{kind}, Seed: 5}, Live)
		dets := d.Detect(core.Frame{}, core.Setting512)
		if len(dets) == 0 {
			t.Fatalf("%v fault returned nothing to sanitize", kind)
		}
		if clean := detect.Sanitize(dets); len(clean) >= len(dets) {
			t.Fatalf("%v: Sanitize kept all %d malformed detections", kind, len(dets))
		}
	}
}

func TestDetectorVirtualModeNeverSleepsOrPanics(t *testing.T) {
	p := Profile{
		Rate: 1, Kinds: []Kind{KindHang, KindPanic, KindLatency},
		Hang: time.Hour, Spike: time.Hour, Seed: 9,
	}
	d := NewDetector(&fixedDetector{}, p, Virtual)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			d.Detect(core.Frame{}, core.Setting512) // must not sleep an hour or panic
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("virtual-mode timing faults blocked")
	}
	counts := d.Counts()
	if counts[KindHang]+counts[KindPanic]+counts[KindLatency] != 30 {
		t.Fatalf("counts = %v, want 30 total", counts)
	}
}

func TestDetectorLivePanics(t *testing.T) {
	d := NewDetector(&fixedDetector{}, Profile{Rate: 1, Kinds: []Kind{KindPanic}, Seed: 2}, Live)
	defer func() {
		if recover() == nil {
			t.Fatal("live panic fault did not panic")
		}
	}()
	d.Detect(core.Frame{}, core.Setting512)
}

func TestTrackerFaults(t *testing.T) {
	inner := &fixedTracker{}
	tr := NewTracker(inner, Profile{Rate: 1, Kinds: []Kind{KindNaN}, Seed: 11}, Live)
	init := []core.Detection{{Class: core.ClassCar, Box: geom.Rect{Left: 1, Top: 1, W: 5, H: 5}, Score: 1}}
	tr.Init(core.Frame{}, init)
	sawNaN, sawInf := false, false
	for i := 0; i < 8; i++ {
		dets, vel := tr.Step(core.Frame{})
		if len(dets) != len(init) {
			t.Fatalf("step %d: NaN fault dropped held detections", i)
		}
		switch {
		case math.IsNaN(vel):
			sawNaN = true
		case math.IsInf(vel, 1):
			sawInf = true
		default:
			t.Fatalf("step %d: velocity %v is not poisoned", i, vel)
		}
		if track.ValidVelocity(vel) {
			t.Fatalf("step %d: ValidVelocity accepted %v", i, vel)
		}
	}
	if !sawNaN || !sawInf {
		t.Fatalf("poisoned velocities not alternating: NaN=%v Inf=%v", sawNaN, sawInf)
	}
	if inner.steps != 0 {
		t.Fatalf("inner stepped %d times under rate-1 faults", inner.steps)
	}
}

func TestTrackerGarbageVelocityRejected(t *testing.T) {
	tr := NewTracker(&fixedTracker{}, Profile{Rate: 1, Kinds: []Kind{KindGarbage}, Seed: 13}, Live)
	tr.Init(core.Frame{}, nil)
	_, vel := tr.Step(core.Frame{})
	if track.ValidVelocity(vel) {
		t.Fatalf("garbage velocity %v passed ValidVelocity", vel)
	}
}

func TestProfileString(t *testing.T) {
	s := Profile{Rate: 0.1, Kinds: []Kind{KindHang}, Seed: 4}.String()
	for _, want := range []string{"rate=0.100", "kinds=hang", "seed=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Profile.String() = %q, missing %q", s, want)
		}
	}
}

// overlapDetector detects concurrent entry: the wrapper's innerMu contract
// says inner detectors need not be concurrency-safe, so any overlap is a
// bug regardless of whether the racing accesses happen to collide.
type overlapDetector struct {
	inFlight   atomic.Int32
	overlapped atomic.Bool
	calls      atomic.Int64
}

func (d *overlapDetector) Detect(core.Frame, core.Setting) []core.Detection {
	if d.inFlight.Add(1) > 1 {
		d.overlapped.Store(true)
	}
	defer d.inFlight.Add(-1)
	d.calls.Add(1)
	return nil
}

// TestDetectorSerializesInnerUnderConcurrency is the -race regression test
// for DetectCtx's two innerMu.Lock sites: the clean branch and the latency
// branch are mutually exclusive, so neither re-acquires the other's lock.
// This pins the property the mutex exists for — inner calls stay serialized
// while clean and latency-faulted calls overlap from many goroutines — so a
// refactor that breaks the branch exclusivity (or drops one Lock) fails
// here, under -race, instead of corrupting a wrapped detector's pooled
// state in production.
func TestDetectorSerializesInnerUnderConcurrency(t *testing.T) {
	inner := &overlapDetector{}
	// Rate 0.5 with only latency faults: roughly half the calls take the
	// clean branch's lock, half the latency branch's (virtual mode, so no
	// real sleeps), interleaved across goroutines.
	p := Profile{Rate: 0.5, Kinds: []Kind{KindLatency}, Spike: time.Hour, Seed: 7}
	d := NewDetector(inner, p, Virtual)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.DetectCtx(context.Background(), core.Frame{}, core.Setting512)
			}
		}()
	}
	wg.Wait()
	if inner.overlapped.Load() {
		t.Fatal("inner detector observed overlapping calls; innerMu failed to serialize")
	}
	if inner.calls.Load() == 0 {
		t.Fatal("inner detector was never called")
	}
}
