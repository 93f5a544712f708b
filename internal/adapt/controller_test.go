package adapt

import (
	"math"
	"testing"
	"testing/quick"

	"adavp/internal/core"
)

// TestControllerDefaults pins the state before the first cycle of an
// adaptive stream: p is the default fraction and there is no velocity sample.
func TestControllerDefaults(t *testing.T) {
	checkControllerDefaults(t, NewController(DefaultModel(), false))
}

// TestControllerNilModelDefaults pins the same state for a stream without a
// model, the controller every non-adaptive policy holds: it still plans with
// the default fraction before any cycle has been observed.
func TestControllerNilModelDefaults(t *testing.T) {
	checkControllerDefaults(t, NewController(nil, false))
}

func checkControllerDefaults(t *testing.T, c *Controller) {
	t.Helper()
	if c.fraction != defaultFraction {
		t.Errorf("initial fraction = %f, want %f", c.fraction, defaultFraction)
	}
	if c.velocity != -1 {
		t.Errorf("initial velocity = %f, want -1", c.velocity)
	}
}

func TestControllerPlanEmpty(t *testing.T) {
	c := NewController(nil, false)
	if got := c.Plan(0, 0); got != nil {
		t.Errorf("Plan(0) = %v, want nil", got)
	}
	if got := c.Plan(0, -3); got != nil {
		t.Errorf("Plan(-3) = %v, want nil", got)
	}
}

func TestControllerPlanSingleFrame(t *testing.T) {
	c := NewController(nil, false)
	got := c.Plan(0, 1)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("Plan(1) = %v, want [0]", got)
	}
}

func TestControllerPlanHalf(t *testing.T) {
	c := NewController(nil, false)
	c.Observe(10, 5, -1) // p = 0.5
	got := c.Plan(0, 10)
	if len(got) != 5 {
		t.Errorf("Plan(10) with p=0.5 selected %d frames: %v", len(got), got)
	}
	if got[len(got)-1] != 9 {
		t.Errorf("last selected frame = %d, want 9 (newest frame must be tracked)", got[len(got)-1])
	}
}

// Properties of Plan after one Observe: frame indices strictly increasing,
// in range, the last always the newest buffered frame, p clamped to [0.05, 1], and the count
// within one of round(p·f) (the newest frame may add one).
func TestControllerPlanProperties(t *testing.T) {
	if err := quick.Check(func(fRaw, hRaw uint8, gRaw uint8) bool {
		f := int(fRaw%60) + 1
		h := int(hRaw)%(f+8) - 4 // out-of-range tracked counts too
		g := int(gRaw%120) + 1
		c := NewController(nil, false)
		c.Observe(f, h, -1)
		if c.fraction < 0.05 || c.fraction > 1 {
			return false
		}
		const first = 100
		plan := c.Plan(first, g)
		if len(plan) == 0 || plan[len(plan)-1] != first+g-1 {
			return false
		}
		prev := first - 1
		for _, idx := range plan {
			if idx <= prev || idx >= first+g {
				return false
			}
			prev = idx
		}
		want := max(1, int(c.fraction*float64(g)+0.5))
		return len(plan) >= want-1 && len(plan) <= want+1
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestControllerObserveClamps(t *testing.T) {
	c := NewController(nil, false)
	c.Observe(10, 0, -1) // would be p = 0 -> clamped
	if got := c.fraction; got != 0.05 {
		t.Errorf("fraction after zero-track cycle = %f, want 0.05", got)
	}
	c.Observe(10, 20, -1) // h > f -> clamped to 1
	if got := c.fraction; got != 1 {
		t.Errorf("fraction after over-track cycle = %f, want 1", got)
	}
	before := c.fraction
	c.Observe(0, 3, -1) // ignored
	if got := c.fraction; got != before {
		t.Errorf("Observe with f=0 changed fraction: %f -> %f", before, got)
	}
	c.Observe(10, -5, -1) // h clamped to 0 -> p clamped to 0.05
	if got := c.fraction; got != 0.05 {
		t.Errorf("fraction after negative h = %f, want 0.05", got)
	}
}

func TestControllerAdaptsAcrossCycles(t *testing.T) {
	// The paper's scenario: the tracker could only keep up with a third of
	// the buffered frames last cycle, so this cycle it plans about a third
	// of the new buffer.
	c := NewController(nil, false)
	c.Observe(12, 4, -1)
	plan := c.Plan(0, 15)
	if len(plan) < 4 || len(plan) > 6 {
		t.Errorf("Plan(15) with p=1/3 selected %d frames (%v), want ~5", len(plan), plan)
	}
}

func TestControllerFullFraction(t *testing.T) {
	c := NewController(nil, false)
	c.Observe(10, 10, -1)
	plan := c.Plan(0, 7)
	if len(plan) != 7 {
		t.Fatalf("Plan(7) with p=1 selected %d frames", len(plan))
	}
	for i, idx := range plan {
		if idx != i {
			t.Fatalf("Plan with p=1 should select every frame, got %v", plan)
		}
	}
}

// noSamples are the velocities Observe must not take: the engines' "nothing
// measured" sentinels and every non-finite value.
var noSamples = []float64{-1, 0, math.NaN(), math.Inf(1), math.Inf(-1)}

// TestControllerNoSampleNoDecision: before a valid sample Next decides
// nothing, and after one an invalid value leaves the estimate — an infinite
// sample in particular, which would freeze Eq. 3 at the smallest model.
func TestControllerNoSampleNoDecision(t *testing.T) {
	for _, raw := range []bool{false, true} {
		c := NewController(DefaultModel(), raw)
		for _, v := range noSamples {
			c.Observe(10, 5, v)
			if next, _, ok := c.Next(core.Setting416); ok || next != core.Setting416 {
				t.Errorf("raw=%v: Next after Observe(%v) = %v, ok=%v; want 416, no decision", raw, v, next, ok)
			}
		}
		c.Observe(10, 5, 2)
		for _, v := range noSamples {
			c.Observe(10, 5, v)
			if _, vel, ok := c.Next(core.Setting416); !ok || vel != 2 {
				t.Errorf("raw=%v: estimate after Observe(%v) = %v, ok=%v; want 2", raw, v, vel, ok)
			}
		}
	}
}

// TestControllerSmoothing: the first valid sample is taken as is, each later
// one is folded in as 0.3·prev + 0.7·v, and Next decides on that estimate.
func TestControllerSmoothing(t *testing.T) {
	m := DefaultModel()
	if err := quick.Check(func(a, b uint16) bool {
		v1, v2 := float64(a)/1000+0.001, float64(b)/1000+0.001
		c := NewController(m, false)
		c.Observe(10, 5, v1)
		_, got1, ok1 := c.Next(core.Setting512)
		c.Observe(10, 5, v2)
		next, got2, ok2 := c.Next(core.Setting512)
		want2 := 0.3*v1 + 0.7*v2
		return ok1 && ok2 && got1 == v1 && got2 == want2 && next == m.Next(core.Setting512, want2)
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestControllerRawTakesLastSample: the NoVelocitySmoothing ablation decides
// on the last cycle's velocity alone.
func TestControllerRawTakesLastSample(t *testing.T) {
	m := DefaultModel()
	c := NewController(m, true)
	for _, v := range []float64{0.2, 12, 3.5, 0.7} {
		c.Observe(10, 5, v)
		if next, vel, ok := c.Next(core.Setting608); !ok || vel != v || next != m.Next(core.Setting608, v) {
			t.Errorf("raw: after Observe(%v) Next = %v, %v, ok=%v", v, next, vel, ok)
		}
	}
}

// TestControllerNilModelNeverSwitches: the fixed-setting policies hold a
// controller for frame selection only.
func TestControllerNilModelNeverSwitches(t *testing.T) {
	for _, raw := range []bool{false, true} {
		c := NewController(nil, raw)
		for _, v := range []float64{0.1, 5, 50} {
			c.Observe(10, 5, v)
			for _, s := range core.AdaptiveSettings {
				if next, _, ok := c.Next(s); ok || next != s {
					t.Errorf("raw=%v: nil model Next(%v) = %v, ok=%v after v=%v", raw, s, next, ok, v)
				}
			}
		}
	}
}
