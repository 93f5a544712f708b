package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"adavp/internal/core"
)

func sampleRun() *Run {
	return &Run{
		Video:  "test-video",
		Policy: "AdaVP",
		Outputs: []core.FrameOutput{
			{FrameIndex: 0, Source: core.SourceDetector, Setting: core.Setting512, Detections: []core.Detection{{Class: core.ClassCar}}},
			{FrameIndex: 1, Source: core.SourceTracker, Setting: core.Setting512},
			{FrameIndex: 2, Source: core.SourceHeld, Setting: core.Setting512},
		},
		FrameF1: []float64{1, 0.8, 0.5},
		Cycles: []Cycle{
			{Index: 0, Setting: core.Setting512, DetectedFrame: 0, Start: 0, End: 380 * time.Millisecond, FramesBuffered: 10, FramesTracked: 5, Velocity: 1.2},
			{Index: 1, Setting: core.Setting608, DetectedFrame: 11, Start: 380 * time.Millisecond, End: 880 * time.Millisecond},
		},
		Switches: []Switch{{CycleIndex: 1, From: core.Setting512, To: core.Setting608, At: 380 * time.Millisecond}},
		Busy: []Interval{
			{Resource: ResourceGPU, Setting: core.Setting512, Start: 0, End: 380 * time.Millisecond},
			{Resource: ResourceGPU, Setting: core.Setting608, Start: 380 * time.Millisecond, End: 880 * time.Millisecond},
			{Resource: ResourceCPUTrack, Start: 380 * time.Millisecond, End: 420 * time.Millisecond},
		},
		Duration: time.Second,
	}
}

func TestIntervalDur(t *testing.T) {
	iv := Interval{Start: time.Second, End: 3 * time.Second}
	if got := iv.Dur(); got != 2*time.Second {
		t.Errorf("Dur = %v", got)
	}
	inverted := Interval{Start: 3 * time.Second, End: time.Second}
	if got := inverted.Dur(); got != 0 {
		t.Errorf("inverted Dur = %v", got)
	}
}

func TestCyclesPerSwitch(t *testing.T) {
	r := &Run{Switches: []Switch{{CycleIndex: 3}, {CycleIndex: 4}, {CycleIndex: 10}}}
	got := r.CyclesPerSwitch()
	want := []float64{3, 1, 6}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if (&Run{}).CyclesPerSwitch() != nil {
		t.Error("no switches should yield nil")
	}
}

func TestSettingUsage(t *testing.T) {
	r := sampleRun()
	usage := r.SettingUsage()
	if usage[core.Setting512] != 0.5 || usage[core.Setting608] != 0.5 {
		t.Errorf("usage = %v", usage)
	}
	if (&Run{}).SettingUsage() != nil {
		t.Error("no cycles should yield nil")
	}
}

func TestWriteCSV(t *testing.T) {
	r := sampleRun()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 frames
		t.Fatalf("%d CSV lines", len(lines))
	}
	if lines[0] != "frame,source,setting,objects,f1" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "detector") || !strings.Contains(lines[1], "1.0000") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.Contains(lines[3], "held") {
		t.Errorf("row 3 = %q", lines[3])
	}
}

func TestWriteJSON(t *testing.T) {
	r := sampleRun()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["video"] != "test-video" || decoded["policy"] != "AdaVP" {
		t.Errorf("metadata = %v %v", decoded["video"], decoded["policy"])
	}
	cycles, ok := decoded["cycles"].([]any)
	if !ok || len(cycles) != 2 {
		t.Fatalf("cycles = %v", decoded["cycles"])
	}
	switches, ok := decoded["switches"].([]any)
	if !ok || len(switches) != 1 {
		t.Fatalf("switches = %v", decoded["switches"])
	}
}

func TestResourceString(t *testing.T) {
	for _, c := range []struct {
		r    Resource
		want string
	}{
		{ResourceGPU, "gpu"},
		{ResourceCPUTrack, "cpu-track"},
		{ResourceCPUOverlay, "cpu-overlay"},
	} {
		if got := c.r.String(); got != c.want {
			t.Errorf("%d = %q", int(c.r), got)
		}
	}
	if got := Resource(9).String(); got == "" {
		t.Error("unknown resource empty")
	}
}
