package energy

import (
	"math"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/sim"
	"adavp/internal/trace"
	"adavp/internal/video"
)

func TestBreakdownArithmetic(t *testing.T) {
	b := Breakdown{GPU: 1, CPU: 2, SoC: 3, DDR: 4}
	if got := b.Total(); got != 10 {
		t.Errorf("Total = %f", got)
	}
	s := b.Scale(2)
	if s.GPU != 2 || s.DDR != 8 {
		t.Errorf("Scale = %+v", s)
	}
	a := b.Add(Breakdown{GPU: 1})
	if a.GPU != 2 || a.CPU != 2 {
		t.Errorf("Add = %+v", a)
	}
}

func TestEnergySyntheticRun(t *testing.T) {
	m := DefaultModel()
	run := &trace.Run{
		Policy: "MPDT",
		Busy: []trace.Interval{
			{Resource: trace.ResourceGPU, Setting: core.Setting512, Start: 0, End: time.Hour},
			{Resource: trace.ResourceCPUTrack, Start: 0, End: time.Hour},
		},
	}
	b := m.Energy(run)
	wantGPU := 4.60 * 0.59
	if math.Abs(b.GPU-wantGPU) > 1e-9 {
		t.Errorf("GPU = %f, want %f", b.GPU, wantGPU)
	}
	// CPU = detect-side (1.10, co-active with GPU) + tracking (2.60).
	if math.Abs(b.CPU-(1.10+2.60)) > 1e-9 {
		t.Errorf("CPU = %f", b.CPU)
	}
	if b.SoC <= 0 || b.DDR <= 0 {
		t.Error("shared rails zero")
	}
	// Continuous policy draws sustained GPU power (no duty derating).
	run.Policy = "Continuous"
	bc := m.Energy(run)
	if bc.GPU <= b.GPU {
		t.Error("sustained inference should draw more GPU power")
	}
}

func TestEnergyUnknownSettingFallsBack(t *testing.T) {
	m := DefaultModel()
	run := &trace.Run{Policy: "Continuous", Busy: []trace.Interval{
		{Resource: trace.ResourceGPU, Setting: core.Setting(99), Start: 0, End: time.Hour},
	}}
	b := m.Energy(run)
	if math.Abs(b.GPU-5.10) > 1e-9 {
		t.Errorf("fallback GPU = %f", b.GPU)
	}
}

// The Table III column structure: on the same video, energy must order as
// MARLIN < MPDT (sequential idles the GPU between triggers while parallel
// saturates it), and continuous-608 must dwarf everything.
func TestEnergyPolicyOrdering(t *testing.T) {
	m := DefaultModel()
	v := video.GenerateKind("hw", video.KindHighway, 5, 450)
	energyOf := func(cfg sim.Config) Breakdown {
		r, err := sim.Run(v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.Energy(r.Run)
	}
	mpdt := energyOf(sim.Config{Policy: sim.PolicyMPDT, Setting: core.Setting512, Seed: 1})
	marlin := energyOf(sim.Config{Policy: sim.PolicyMARLIN, Setting: core.Setting512, Seed: 1})
	cont := energyOf(sim.Config{Policy: sim.PolicyContinuous, Setting: core.Setting608, Seed: 1})
	adavp := energyOf(sim.Config{Policy: sim.PolicyAdaVP, Seed: 1})

	if marlin.Total() >= mpdt.Total() {
		t.Errorf("MARLIN total %.3f not below MPDT %.3f", marlin.Total(), mpdt.Total())
	}
	if cont.Total() < 5*mpdt.Total() {
		t.Errorf("continuous-608 %.3f not dwarfing MPDT %.3f", cont.Total(), mpdt.Total())
	}
	// AdaVP sits in the MPDT energy band (same parallel schedule).
	if adavp.Total() < marlin.Total() || adavp.Total() > cont.Total() {
		t.Errorf("AdaVP total %.3f outside [MARLIN %.3f, continuous %.3f]", adavp.Total(), marlin.Total(), cont.Total())
	}
	// Every breakdown is positive in all rails.
	for _, b := range []Breakdown{mpdt, marlin, cont, adavp} {
		if b.GPU <= 0 || b.CPU <= 0 || b.SoC <= 0 || b.DDR <= 0 {
			t.Errorf("non-positive rail in %+v", b)
		}
	}
}

// GPU energy grows with the fixed model setting under the same policy.
func TestEnergyGrowsWithSetting(t *testing.T) {
	m := DefaultModel()
	v := video.GenerateKind("hw", video.KindHighway, 5, 300)
	prev := -1.0
	for _, s := range core.AdaptiveSettings {
		r, err := sim.Run(v, sim.Config{Policy: sim.PolicyContinuous, Setting: s, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		b := m.Energy(r.Run)
		if b.GPU <= prev {
			t.Errorf("GPU energy not increasing at %v: %.3f <= %.3f", s, b.GPU, prev)
		}
		prev = b.GPU
	}
}
