package sim

import (
	"sort"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/geom"
	"adavp/internal/trace"
	"adavp/internal/track"
	"adavp/internal/video"
)

// The tracked cycle's rules on the virtual clock (adapt.Cycle, DESIGN §10).

// stillTracker publishes its reference boxes unchanged at velocity 1.
type stillTracker struct{ dets []core.Detection }

func (s *stillTracker) Init(_ core.Frame, dets []core.Detection) int {
	s.dets = dets
	return len(dets)
}

func (s *stillTracker) Step(core.Frame) ([]core.Detection, float64) { return s.dets, 1 }

// TestSimCycleStopsAtTheDetectionEnd ends the detection at the end of each
// tracking task in turn: the task ending exactly then runs, the next one
// does not start, and a detection that ends before feature extraction can
// runs nothing, Init included. Sim's stop is predictive: it knows each
// task's cost before the task starts.
func TestSimCycleStopsAtTheDetectionEnd(t *testing.T) {
	v := testVideo(t)
	cfg := Config{Policy: PolicyMPDT, Seed: 4, TrackAllFrames: true,
		NewTracker: func(uint64) track.Tracker { return &stillTracker{} }}.withDefaults()
	refDets := []core.Detection{
		{Box: geom.Rect{Left: 40, Top: 40, W: 20, H: 10}, Class: 1, Score: 0.9},
		{Box: geom.Rect{Left: 90, Top: 60, W: 12, H: 12}, Class: 1, Score: 0.8},
	}
	// A cycle from frame 0 to the detection of frame 11, every buffered
	// frame planned.
	const detected, start = 11, 100 * time.Millisecond
	cycle := func(end time.Duration) (*engine, int) {
		e := newEngine(v, cfg)
		e.execCycle(&parallelState{prev: v.Frame(0), prevDets: refDets, setting: cfg.Setting},
			cyclePlan{now: start, frame: detected, setting: cfg.Setting}, end)
		return e, e.run.Cycles[0].FramesTracked
	}
	// A twin engine draws what the cycle draws, in the same order: feature
	// extraction and the motion feature, then each frame's tracking and
	// overlay. ends[0] is when Init ends and ends[j] when frame j ends.
	twin := newEngine(v, cfg)
	ends := []time.Duration{start + twin.lat.FeatureExtract()}
	cursor := ends[0] + twin.lat.MotionFeature()
	for i := 1; i < detected; i++ {
		cursor += twin.lat.TrackFrame(len(refDets)) + twin.lat.Overlay()
		ends = append(ends, cursor)
	}
	for j, end := range ends {
		e, tracked := cycle(end)
		if tracked != j {
			t.Fatalf("detection ending with frame %d: tracked %d", j, tracked)
		}
		if j > 0 {
			if out := e.outputs[j]; out.Source != core.SourceTracker || out.Ready != end {
				t.Errorf("frame %d: %v ready at %v, want tracked at the detection's end %v", j, out.Source, out.Ready, end)
			}
		}
		if j+1 < detected && e.outputs[j+1].Source != core.SourceNone {
			t.Errorf("frame %d tracked past the detection's end", j+1)
		}
	}
	if e, tracked := cycle(ends[0] - 1); tracked != 0 || len(e.run.Busy) != 1 {
		t.Errorf("a detection ending inside feature extraction tracked %d frames and charged %v", tracked, e.run.Busy)
	}
}

// panicTracker panics in every Init when init is set, else in every Step,
// logging the frames it was stepped onto.
type panicTracker struct {
	init    bool
	stepped []int
}

func (p *panicTracker) Init(core.Frame, []core.Detection) int {
	if p.init {
		panic("sim test: injected tracker Init panic")
	}
	return 0
}

func (p *panicTracker) Step(f core.Frame) ([]core.Detection, float64) {
	p.stepped = append(p.stepped, f.Index)
	panic("sim test: injected tracker Step panic")
}

// TestSimRecoversTrackerPanics is the sim counterpart of rt's
// TestSupervisorRecoversTrackerPanics: a tracker that panics in Init or in
// Step leaves the run complete, with the frames it panicked on held.
func TestSimRecoversTrackerPanics(t *testing.T) {
	v := video.GenerateKind("tp", video.KindHighway, 5, 200)
	for _, init := range []bool{false, true} {
		for _, p := range []Policy{PolicyAdaVP, PolicyMPDT, PolicyMARLIN} {
			tr := &panicTracker{init: init}
			r, err := Run(v, Config{Policy: p, Seed: 1, NewTracker: func(uint64) track.Tracker { return tr }})
			if err != nil {
				t.Fatalf("%v, Init panics %v: %v", p, init, err)
			}
			for i, out := range r.Run.Outputs {
				if out.FrameIndex != i || out.Source == core.SourceNone || out.Source == core.SourceTracker {
					t.Fatalf("%v, Init panics %v: frame %d output %v from %v", p, init, i, out.FrameIndex, out.Source)
				}
			}
			if init != (len(tr.stepped) == 0) {
				t.Fatalf("%v, Init panics %v: stepped onto %d frames", p, init, len(tr.stepped))
			}
			for _, i := range tr.stepped {
				if src := r.Run.Outputs[i].Source; src != core.SourceHeld {
					t.Errorf("%v: frame %d, where Step panicked, is %v", p, i, src)
				}
			}
			for _, c := range r.Run.Cycles {
				if c.FramesTracked != 0 || c.FramesTracked > c.FramesBuffered {
					t.Errorf("%v, Init panics %v: cycle %d tracked %d of %d", p, init, c.Index, c.FramesTracked, c.FramesBuffered)
				}
			}
		}
	}
}

// TestCPUIntervalsNonOverlapping pins what a reactive sim would have to
// keep: one stream's tracking and overlay intervals never overlap, and a
// parallel cycle publishes each tracked frame by the detection's end.
func TestCPUIntervalsNonOverlapping(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		v := video.GenerateKind("cpu", video.KindCityStreet, seed, 450)
		for _, p := range []Policy{PolicyAdaVP, PolicyMPDT, PolicyMARLIN} {
			r, err := Run(v, Config{Policy: p, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var cpu []trace.Interval
			for _, iv := range r.Run.Busy {
				if iv.Resource == trace.ResourceCPUTrack || iv.Resource == trace.ResourceCPUOverlay {
					cpu = append(cpu, iv)
				}
			}
			if len(cpu) == 0 {
				t.Fatalf("%v seed %d: no CPU work", p, seed)
			}
			sort.Slice(cpu, func(i, j int) bool { return cpu[i].Start < cpu[j].Start })
			for i := 1; i < len(cpu); i++ {
				if cpu[i].Start < cpu[i-1].End {
					t.Fatalf("%v seed %d: CPU [%v,%v) overlaps [%v,%v)", p, seed, cpu[i].Start, cpu[i].End, cpu[i-1].Start, cpu[i-1].End)
				}
			}
			if p == PolicyMARLIN {
				continue
			}
			cycles := r.Run.Cycles
			for i, out := range r.Run.Outputs {
				if out.Source != core.SourceTracker {
					continue
				}
				// The cycle that tracked frame i is the first to detect a
				// later frame.
				c := sort.Search(len(cycles), func(k int) bool { return cycles[k].DetectedFrame > i })
				if c == len(cycles) || out.Ready > cycles[c].End {
					t.Fatalf("%v seed %d: frame %d ready at %v, after its cycle", p, seed, i, out.Ready)
				}
			}
		}
	}
}
