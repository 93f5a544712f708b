package rt

import (
	"context"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/guard"
	"adavp/internal/obs"
	"adavp/internal/video"
)

// TestEscalationClampsAtSmallestSetting drives repeated hard faults against
// a pipeline already running at the smallest setting: escalation must have
// nowhere to go — no downgrade recorded, no shared budget consumed, no
// setting ever leaving the valid ladder. This is the regression test for
// index underflow / re-escalation churn at 320.
func TestEscalationClampsAtSmallestSetting(t *testing.T) {
	v := video.GenerateKind("sat", video.KindHighway, 3, 120)
	budget := guard.NewEscalationBudget(10, 0)
	cfg := liveConfig()
	cfg.Setting = core.Setting320
	cfg.Detector = panicDetector{}
	cfg.Guard = guard.Config{
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Budget:      budget,
	}
	r, err := Run(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, r, v.NumFrames())
	if r.Faults.Panics == 0 {
		t.Fatal("campaign produced no faults; the saturation path was never exercised")
	}
	if r.Faults.Downgrades != 0 {
		t.Errorf("%d downgrades recorded at the smallest setting", r.Faults.Downgrades)
	}
	if got := budget.Remaining(); got != 10 {
		t.Errorf("budget burned to %d by inapplicable downgrades at 320, want 10 untouched", got)
	}
	for i, out := range r.Outputs {
		if out.Source != core.SourceNone && out.Setting != core.Setting320 {
			t.Fatalf("frame %d ran at %v; saturation must pin the smallest setting", i, out.Setting)
		}
	}
}

// TestEscalationWalksLadderThenSaturates starts at the largest setting under
// persistent faults: the supervisor may walk 608→512→416→320 (one budget
// grant per applied downgrade) and must then stop — downgrades can never
// exceed the ladder length, and the budget burn must equal the downgrades
// actually applied.
func TestEscalationWalksLadderThenSaturates(t *testing.T) {
	v := video.GenerateKind("sat", video.KindHighway, 3, 200)
	budget := guard.NewEscalationBudget(10, 0)
	cfg := liveConfig()
	cfg.Setting = core.Setting608
	cfg.Detector = panicDetector{}
	cfg.Guard = guard.Config{
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Budget:      budget,
	}
	r, err := Run(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWellFormed(t, r, v.NumFrames())
	maxLadder := len(core.AdaptiveSettings) - 1
	if r.Faults.Downgrades > maxLadder {
		t.Errorf("%d downgrades exceed the %d-step ladder", r.Faults.Downgrades, maxLadder)
	}
	if got, want := budget.Remaining(), 10-r.Faults.Downgrades; got != want {
		t.Errorf("budget remaining %d after %d downgrades, want %d", got, r.Faults.Downgrades, want)
	}
	for i, out := range r.Outputs {
		if out.Source != core.SourceNone && !out.Setting.Valid() {
			t.Fatalf("frame %d at invalid setting %v during escalation", i, out.Setting)
		}
	}
}

// TestCancellationJournalConsistent pins the cancellation-timing contract:
// however the run is cut, the partial result and the published telemetry
// must agree — every detection cycle is recorded exactly once (detect-stage
// samples == cycle counter == Result.Cycles, no duplicated or half-recorded
// cycle) and the frame counters match the outputs actually returned. Runs
// under -race via make race.
func TestCancellationJournalConsistent(t *testing.T) {
	for _, afterMS := range []int{20, 50, 90} {
		v := video.GenerateKind("cancel", video.KindHighway, 5, 3000)
		reg := obs.NewRegistry()
		cfg := liveConfig()
		cfg.TimeScale = 0.05
		cfg.Obs = reg
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(afterMS)*time.Millisecond)
		r, err := Run(ctx, v, cfg)
		cancel()
		if err == nil {
			t.Fatalf("cancel@%dms: run was not cut short", afterMS)
		}
		if r == nil || !r.Partial {
			t.Fatalf("cancel@%dms: no partial result", afterMS)
		}
		snap := reg.Snapshot()
		var detectSamples, cycleCount int64
		for _, h := range snap.Histograms {
			if h.Name == obs.MetricStageLatency && hasLabel(h.Labels, "stage", obs.StageDetect) {
				detectSamples += h.Count
			}
		}
		frameCounts := map[string]int64{}
		for _, c := range snap.Counters {
			switch c.Name {
			case obs.MetricCycles:
				cycleCount += c.Value
			case obs.MetricFrames:
				for _, l := range c.Labels {
					if l.Key == "source" {
						frameCounts[l.Value] += c.Value
					}
				}
			}
		}
		if detectSamples != int64(r.Cycles) || cycleCount != int64(r.Cycles) {
			t.Errorf("cancel@%dms: detect samples %d / cycle counter %d / result cycles %d must all agree",
				afterMS, detectSamples, cycleCount, r.Cycles)
		}
		want := map[string]int64{}
		for _, out := range r.Outputs {
			if out.Source != core.SourceNone {
				want[out.Source.String()]++
			}
		}
		for src, n := range want {
			if frameCounts[src] != n {
				t.Errorf("cancel@%dms: frames{source=%s} counter %d, outputs have %d",
					afterMS, src, frameCounts[src], n)
			}
		}
		for src, n := range frameCounts {
			if want[src] != n {
				t.Errorf("cancel@%dms: counter reports %d %s frames not present in outputs", afterMS, n, src)
			}
		}
	}
}

func hasLabel(ls []obs.Label, key, value string) bool {
	for _, l := range ls {
		if l.Key == key && l.Value == value {
			return true
		}
	}
	return false
}
