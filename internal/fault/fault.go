// Package fault is a deterministic fault-injection framework for the AdaVP
// pipeline. It wraps the two stateful pipeline components — the object
// detector and the object tracker — with seeded, schedulable fault injectors
// covering the taxonomy that real on-device deployments exhibit:
//
//   - KindEmpty: the component transiently returns nothing (a dropped
//     inference, an OOM-killed batch).
//   - KindGarbage: malformed outputs — negative sizes, out-of-frame boxes,
//     invalid classes, out-of-range scores.
//   - KindNaN: numerically poisoned outputs — NaN coordinates from the
//     detector, NaN/±Inf velocities from the tracker.
//   - KindLatency: a bounded latency spike (thermal throttling, contention).
//   - KindHang: the call blocks far past any reasonable deadline.
//   - KindPanic: the call panics (a driver bug, an assertion failure).
//
// The schedule is a pure function of (Profile.Seed, call index): call i
// belongs to block i/Burst, and each block is independently faulted with
// probability Rate using an rng stream derived from the block index. Both
// the virtual-clock simulator (internal/sim) and the live goroutine pipeline
// (internal/rt) therefore inject *identical* fault streams from the same
// Profile, and concurrent callers cannot perturb the schedule.
//
// Timing faults only make sense against a real clock, so injectors run in
// one of two modes: Live executes them for real (sleeps, blocking hangs,
// panics), while Virtual — used by the discrete-event simulator — maps them
// to lost (empty) results, which is how a hung or crashed component appears
// to a scheduler that cannot wait on it.
package fault

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/geom"
	"adavp/internal/rng"
	"adavp/internal/track"
)

// Kind identifies one fault class of the taxonomy.
type Kind int

// Fault kinds.
const (
	KindEmpty Kind = iota
	KindGarbage
	KindNaN
	KindLatency
	KindHang
	KindPanic
	numKinds // sentinel; keep last
)

var kindNames = [...]string{
	KindEmpty:   "empty",
	KindGarbage: "garbage",
	KindNaN:     "nan",
	KindLatency: "latency",
	KindHang:    "hang",
	KindPanic:   "panic",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// AllKinds returns every fault kind, taxonomy order.
func AllKinds() []Kind {
	out := make([]Kind, 0, int(numKinds))
	for k := Kind(0); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// ParseKinds parses a comma-separated kind list ("hang,panic"). An empty
// string yields the full taxonomy.
func ParseKinds(s string) ([]Kind, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return AllKinds(), nil
	}
	var out []Kind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for k := Kind(0); k < numKinds; k++ {
			if k.String() == name {
				out = append(out, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fault: unknown kind %q (have %s)", name, KindList())
		}
	}
	return out, nil
}

// KindList returns the taxonomy as a "|"-joined string for usage messages.
func KindList() string {
	names := make([]string, 0, int(numKinds))
	for k := Kind(0); k < numKinds; k++ {
		names = append(names, k.String())
	}
	return strings.Join(names, "|")
}

// Mode selects how timing faults execute.
type Mode int

// Modes.
const (
	// Live executes timing faults for real: latency faults sleep, hangs
	// block for Profile.Hang of wall time, and panic faults panic. Use with
	// the supervised live pipeline (internal/rt + internal/guard).
	Live Mode = iota
	// Virtual is for the virtual-clock simulator: latency, hang and panic
	// faults all manifest as lost (empty) results, since a hung or crashed
	// component produces nothing a discrete-event scheduler could wait on.
	Virtual
)

// Profile describes one fault campaign. Profiles are composable value types:
// the same profile handed to internal/sim and internal/rt injects the same
// schedule in both engines.
type Profile struct {
	// Rate is the probability that one burst block is faulted.
	Rate float64
	// Burst is the number of consecutive calls a scheduled fault spans.
	// Default: 1.
	Burst int
	// Kinds are the fault classes drawn (uniformly) per faulted block.
	// Default: the full taxonomy.
	Kinds []Kind
	// Hang is the wall-clock duration of a KindHang fault in Live mode; it
	// should comfortably exceed the supervisor's watchdog deadline.
	// Default: 400ms.
	Hang time.Duration
	// Spike is the wall-clock duration of a KindLatency fault in Live mode.
	// Default: 60ms.
	Spike time.Duration
	// Seed derives the schedule; equal seeds yield equal schedules.
	Seed uint64
}

func (p Profile) withDefaults() Profile {
	if p.Burst <= 0 {
		p.Burst = 1
	}
	if len(p.Kinds) == 0 {
		p.Kinds = AllKinds()
	}
	if p.Hang <= 0 {
		p.Hang = 400 * time.Millisecond
	}
	if p.Spike <= 0 {
		p.Spike = 60 * time.Millisecond
	}
	return p
}

// String summarizes the profile for logs and CLI output.
func (p Profile) String() string {
	p = p.withDefaults()
	names := make([]string, len(p.Kinds))
	for i, k := range p.Kinds {
		names[i] = k.String()
	}
	return fmt.Sprintf("rate=%.3f burst=%d kinds=%s seed=%d",
		p.Rate, p.Burst, strings.Join(names, ","), p.Seed)
}

// schedule decides, per call index, whether the call is faulted and how.
// Decisions are pure functions of (seed, component tag, call index), so they
// are identical across engines and safe for concurrent use.
type schedule struct {
	prof Profile
	root *rng.Stream
}

func newSchedule(p Profile, component string) *schedule {
	return &schedule{
		prof: p,
		root: rng.New(p.Seed).DeriveString("fault").DeriveString(component),
	}
}

// decide returns the fault kind scheduled for call i, if any.
func (s *schedule) decide(call int) (Kind, bool) {
	block := call / s.prof.Burst
	r := s.root.Derive(uint64(block))
	if !r.Bool(s.prof.Rate) {
		return 0, false
	}
	return s.prof.Kinds[r.Intn(len(s.prof.Kinds))], true
}

// Event records one injected fault.
type Event struct {
	// Component is "detector" or "tracker".
	Component string
	// Call is the zero-based call index the fault fired at.
	Call int
	// Kind is the injected fault class.
	Kind Kind
}

// injector is the shared bookkeeping of both wrappers.
type injector struct {
	sched *schedule
	mode  Mode
	comp  string
	calls atomic.Int64

	mu     sync.Mutex
	counts map[Kind]int
	events []Event
}

func newInjector(p Profile, m Mode, component string) injector {
	p = p.withDefaults()
	return injector{
		sched:  newSchedule(p, component),
		mode:   m,
		comp:   component,
		counts: make(map[Kind]int),
	}
}

// next advances the call counter and reports the scheduled fault, recording
// it when one fires.
func (in *injector) next() (call int, kind Kind, faulted bool) {
	call = int(in.calls.Add(1) - 1)
	kind, faulted = in.sched.decide(call)
	if faulted {
		in.mu.Lock()
		in.counts[kind]++
		in.events = append(in.events, Event{Component: in.comp, Call: call, Kind: kind})
		in.mu.Unlock()
	}
	return call, kind, faulted
}

// Counts returns a copy of the per-kind injected-fault counters.
func (in *injector) Counts() map[Kind]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int, len(in.counts))
	for k, n := range in.counts {
		out[k] = n
	}
	return out
}

// Events returns a copy of the injected-fault event log, call order.
func (in *injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// Detector wraps a detect.Detector with an injection schedule. It is safe
// for concurrent Detect calls (the supervised pipeline may retry while an
// abandoned hung call is still draining): non-faulted calls serialize access
// to the inner detector, and timing faults never touch it.
type Detector struct {
	injector
	prof  Profile
	inner detect.Detector
	// innerMu serializes inner calls; abandoned watchdog goroutines may
	// overlap a retry, and inner detectors are not required to be
	// concurrency-safe.
	innerMu sync.Mutex
}

var _ detect.ContextDetector = (*Detector)(nil)

// NewDetector wraps inner with the profile's fault schedule.
func NewDetector(inner detect.Detector, p Profile, m Mode) *Detector {
	return &Detector{
		injector: newInjector(p, m, "detector"),
		prof:     p.withDefaults(),
		inner:    inner,
	}
}

// Detect implements detect.Detector.
func (d *Detector) Detect(f core.Frame, s core.Setting) []core.Detection {
	return d.DetectCtx(context.Background(), f, s)
}

// DetectCtx implements detect.ContextDetector: the supervision layer's
// abandonment signal passes through the injector to the inner detector (the
// hang and latency faults are exactly what make the watchdog abandon calls,
// so the inner detector must see the cancellation to drop its pooled state).
func (d *Detector) DetectCtx(ctx context.Context, f core.Frame, s core.Setting) []core.Detection {
	call, kind, faulted := d.next()
	if !faulted {
		d.innerMu.Lock()
		defer d.innerMu.Unlock()
		return detect.DetectWith(ctx, d.inner, f, s)
	}
	switch kind {
	case KindEmpty:
		return nil
	case KindGarbage:
		return garbageDetections(call)
	case KindNaN:
		return nanDetections()
	case KindLatency:
		if d.mode == Live {
			time.Sleep(d.prof.Spike)
		}
		d.innerMu.Lock()
		defer d.innerMu.Unlock()
		return detect.DetectWith(ctx, d.inner, f, s)
	case KindHang:
		if d.mode == Live {
			time.Sleep(d.prof.Hang)
		}
		return nil
	case KindPanic:
		if d.mode == Live {
			panic(fmt.Sprintf("fault: injected detector panic at call %d", call))
		}
		return nil
	}
	return nil
}

// garbageDetections fabricates structurally malformed detections: negative
// sizes, far-out-of-frame boxes, invalid classes, out-of-range scores.
func garbageDetections(call int) []core.Detection {
	return []core.Detection{
		{Class: core.Class(200 + call%7), Box: geom.Rect{Left: -1e4, Top: -1e4, W: -5, H: -5}, Score: 3},
		{Class: core.ClassCar, Box: geom.Rect{Left: 1e9, Top: 1e9, W: 4, H: 4}, Score: -2},
		{Class: core.ClassPerson, Box: geom.Rect{Left: 10, Top: 10, W: 0, H: 12}, Score: 0.9},
	}
}

// nanDetections fabricates numerically poisoned detections.
func nanDetections() []core.Detection {
	return []core.Detection{
		{Class: core.ClassCar, Box: geom.Rect{Left: math.NaN(), Top: 5, W: 10, H: 10}, Score: 0.8},
		{Class: core.ClassTruck, Box: geom.Rect{Left: 5, Top: 5, W: math.Inf(1), H: 10}, Score: math.NaN()},
	}
}

// Tracker wraps a track.Tracker with an injection schedule. Init always
// passes through (faulting it would only shift the cycle structure); Step
// calls are faulted per the schedule. Trackers are stateful and single-
// threaded, so timing faults stall the calling goroutine rather than being
// abandoned — KindHang is a bounded stall of Profile.Hang.
type Tracker struct {
	injector
	prof  Profile
	inner track.Tracker
	held  []core.Detection
}

var _ track.Tracker = (*Tracker)(nil)

// NewTracker wraps inner with the profile's fault schedule.
func NewTracker(inner track.Tracker, p Profile, m Mode) *Tracker {
	return &Tracker{
		injector: newInjector(p, m, "tracker"),
		prof:     p.withDefaults(),
		inner:    inner,
	}
}

// Init implements track.Tracker.
func (t *Tracker) Init(ref core.Frame, dets []core.Detection) int {
	t.held = dets
	return t.inner.Init(ref, dets)
}

// Step implements track.Tracker.
func (t *Tracker) Step(next core.Frame) ([]core.Detection, float64) {
	call, kind, faulted := t.next()
	if !faulted {
		dets, vel := t.inner.Step(next)
		t.held = dets
		return dets, vel
	}
	switch kind {
	case KindEmpty:
		return nil, 0
	case KindGarbage:
		// Malformed boxes plus an absurd (finite) velocity that would poison
		// the adaptation model if let through.
		return garbageDetections(call), 1e9
	case KindNaN:
		// Alternate NaN and +Inf so both poisoned-velocity paths are hit.
		if call%2 == 0 {
			return t.held, math.NaN()
		}
		return t.held, math.Inf(1)
	case KindLatency:
		if t.mode == Live {
			time.Sleep(t.prof.Spike)
		}
		dets, vel := t.inner.Step(next)
		t.held = dets
		return dets, vel
	case KindHang:
		if t.mode == Live {
			time.Sleep(t.prof.Hang)
		}
		return t.held, 0
	case KindPanic:
		if t.mode == Live {
			panic(fmt.Sprintf("fault: injected tracker panic at call %d", call))
		}
		return t.held, 0
	}
	return t.held, 0
}
