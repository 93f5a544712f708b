package rt

import (
	"context"
	"testing"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/geom"
	"adavp/internal/guard"
	"adavp/internal/rng"
	"adavp/internal/video"
)

// genTracker publishes its reference boxes unchanged, and its Step onto
// frame bumpAt moves the generation, as the detector's next fetch does.
type genTracker struct {
	p      *pipeline
	bumpAt int
	inits  int
	dets   []core.Detection
}

func (g *genTracker) Init(_ core.Frame, dets []core.Detection) int {
	g.inits++
	g.dets = dets
	return len(dets)
}

func (g *genTracker) Step(f core.Frame) ([]core.Detection, float64) {
	if f.Index == g.bumpAt {
		g.p.generation.Add(1)
	}
	return g.dets, 1
}

// TestRunCycleStopsOnNewGeneration moves the generation inside each planned
// step in turn: that step completes and publishes, and the next one does not
// start. A generation that moved before the cycle runs nothing, Init
// included. rt's stop is reactive: it reads what the detector has done.
func TestRunCycleStopsOnNewGeneration(t *testing.T) {
	v := video.GenerateKind("gen", video.KindHighway, 3, 40)
	w := cycleWork{Ref: v.Frame(0), EndFrame: 10, Setting: core.Setting512,
		RefDets: []core.Detection{{Box: geom.Rect{Left: 40, Top: 40, W: 20, H: 10}, Class: 1, Score: 0.9}}}
	plan := adapt.NewController(nil, false).Plan(1, 9)
	// track runs the tracker thread over w alone and returns its outputs.
	track := func(depth, bumpAt int, moved bool) ([]core.FrameOutput, *genTracker) {
		cfg := Config{TimeScale: 0.001}.withDefaults()
		p := &pipeline{v: v, cfg: cfg, sup: guard.New(cfg.Guard), depth: depth,
			ctrl: adapt.NewController(nil, false), work: make(chan cycleWork, 1),
			outputs: make([]core.FrameOutput, v.NumFrames()), start: time.Now(),
			latTrk: core.NewLatencyModel(rng.New(1).DeriveString("rt-latency-tracker"))}
		p.resolveSeries()
		tr := &genTracker{p: p, bumpAt: bumpAt}
		p.tracker = tr
		if moved {
			p.generation.Add(1)
		}
		p.work <- w
		close(p.work)
		p.trackerLoop(context.Background())
		return p.outputs, tr
	}
	for _, depth := range []int{1, 3} {
		for j, bumpAt := range plan {
			outs, _ := track(depth, bumpAt, false)
			for k, i := range plan {
				if want := k <= j; (outs[i].Source == core.SourceTracker) != want {
					t.Errorf("depth %d, generation moved in frame %d's step: frame %d is %v", depth, bumpAt, i, outs[i].Source)
				}
			}
		}
		outs, tr := track(depth, -1, true)
		if tr.inits != 0 || outs[plan[0]].Source != core.SourceNone {
			t.Errorf("depth %d, generation moved before the cycle: %d Init calls, frame %d %v", depth, tr.inits, plan[0], outs[plan[0]].Source)
		}
	}
}
