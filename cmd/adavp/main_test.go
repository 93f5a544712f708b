package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"adavp"
)

// TestSettingFlagValidatesAtParseTime: an invalid -setting must fail the
// flag parse itself (before any run state exists) with an error naming the
// valid pixel sizes.
func TestSettingFlagValidatesAtParseTime(t *testing.T) {
	for _, bad := range []string{"300", "0", "-512", "abc", "512px"} {
		var o cliOpts
		fs := newFlagSet(&o, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		err := fs.Parse([]string{"-setting", bad})
		if err == nil {
			t.Errorf("-setting %s parsed without error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "320|416|512|608") {
			t.Errorf("-setting %s: error %q does not name the valid sizes", bad, err)
		}
	}
}

func TestSettingFlagAcceptsValidSizes(t *testing.T) {
	cases := map[string]adavp.Setting{
		"320": adavp.Setting320,
		"416": adavp.Setting416,
		"512": adavp.Setting512,
		"608": adavp.Setting608,
	}
	for arg, want := range cases {
		var o cliOpts
		fs := newFlagSet(&o, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := fs.Parse([]string{"-setting", arg}); err != nil {
			t.Errorf("-setting %s rejected: %v", arg, err)
			continue
		}
		if o.setting != want {
			t.Errorf("-setting %s parsed to %v, want %v", arg, o.setting, want)
		}
	}
}

func TestSettingFlagDefault(t *testing.T) {
	var o cliOpts
	fs := newFlagSet(&o, flag.ContinueOnError)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.setting != adavp.Setting512 {
		t.Errorf("default setting %v, want Setting512", o.setting)
	}
}

// TestFaultKindsFlagValidatesAtParseTime: an invalid -fault-kinds list must
// fail the flag parse itself with an error naming the six valid kinds.
func TestFaultKindsFlagValidatesAtParseTime(t *testing.T) {
	for _, bad := range []string{"bogus", "hang,explode", "panic;hang", "HANG"} {
		var o cliOpts
		fs := newFlagSet(&o, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		err := fs.Parse([]string{"-fault-kinds", bad})
		if err == nil {
			t.Errorf("-fault-kinds %s parsed without error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "empty|garbage|nan|latency|hang|panic") {
			t.Errorf("-fault-kinds %s: error %q does not name the valid kinds", bad, err)
		}
	}
}

func TestFaultKindsFlagParsesList(t *testing.T) {
	var o cliOpts
	fs := newFlagSet(&o, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse([]string{"-fault-kinds", "hang, panic"}); err != nil {
		t.Fatalf("valid kinds rejected: %v", err)
	}
	if len(o.faultKinds) != 2 || o.faultKinds[0] != adavp.FaultHang || o.faultKinds[1] != adavp.FaultPanic {
		t.Errorf("parsed kinds = %v, want [hang panic]", o.faultKinds)
	}
	if kinds := defaultOpts(t).faultKinds; kinds != nil {
		t.Errorf("default fault kinds = %v, want nil (full taxonomy)", kinds)
	}
}

// TestScenarioFlagAcceptsHostileKinds: the hostile presets are reachable
// from -scenario and listed in its usage text.
func TestScenarioFlagAcceptsHostileKinds(t *testing.T) {
	for _, name := range []string{"day-night", "rainstorm", "fog-bank", "occlusion-storm", "scene-cut", "strobe-drop", "frozen", "dead-sensor"} {
		if _, err := parseScenario(name); err != nil {
			t.Errorf("parseScenario(%q): %v", name, err)
		}
		if !strings.Contains(scenarioList(), name) {
			t.Errorf("scenario usage list missing %q", name)
		}
	}
}

// defaultOpts parses an empty command line, yielding every flag default.
func defaultOpts(t *testing.T) cliOpts {
	t.Helper()
	var o cliOpts
	fs := newFlagSet(&o, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestRunRejectsBadServingFlags: degenerate -streams / -detector-slots and
// single-stream-only reports combined with -streams are refused up front.
func TestRunRejectsBadServingFlags(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*cliOpts)
	}{
		{"zero streams", func(o *cliOpts) { o.streams = 0 }},
		{"negative slots", func(o *cliOpts) { o.detectorSlots = -1 }},
		{"csv with streams", func(o *cliOpts) { o.streams = 2; o.csvPath = "x.csv" }},
		{"dump with streams", func(o *cliOpts) { o.streams = 2; o.dumpN = 3 }},
	}
	for _, tc := range cases {
		o := defaultOpts(t)
		o.frames = 60
		tc.mod(&o)
		if err := run(o); err == nil {
			t.Errorf("%s: run accepted invalid flags", tc.name)
		}
	}
}

// TestRunMultiStreamSmoke drives the CLI multi-stream path end to end on the
// virtual clock: two streams over one shared slot, short video.
func TestRunMultiStreamSmoke(t *testing.T) {
	o := defaultOpts(t)
	o.frames = 90
	o.streams = 2
	o.detectorSlots = 1
	if err := run(o); err != nil {
		t.Fatalf("multi-stream run failed: %v", err)
	}
}

// TestBatchSizeFlagValidatesAtParseTime: an out-of-range -batch-size must
// fail the flag parse itself with an error naming the valid range.
func TestBatchSizeFlagValidatesAtParseTime(t *testing.T) {
	for _, bad := range []string{"0", "-1", "65", "four", "2.0"} {
		var o cliOpts
		fs := newFlagSet(&o, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		err := fs.Parse([]string{"-batch-size", bad})
		if err == nil {
			t.Errorf("-batch-size %s parsed without error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "1..64") {
			t.Errorf("-batch-size %s: error %q does not name the valid range", bad, err)
		}
	}
	var o cliOpts
	fs := newFlagSet(&o, flag.ContinueOnError)
	if err := fs.Parse([]string{"-batch-size", "8"}); err != nil {
		t.Fatalf("-batch-size 8 rejected: %v", err)
	}
	if o.batch.Size != 8 {
		t.Fatalf("-batch-size 8 parsed to %d", o.batch.Size)
	}
}

// TestBatchTimeoutFlagValidatesAtParseTime: a non-positive or malformed
// -batch-timeout must fail the parse with an error showing valid examples.
func TestBatchTimeoutFlagValidatesAtParseTime(t *testing.T) {
	for _, bad := range []string{"0", "0s", "-5ms", "10", "never"} {
		var o cliOpts
		fs := newFlagSet(&o, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		err := fs.Parse([]string{"-batch-timeout", bad})
		if err == nil {
			t.Errorf("-batch-timeout %s parsed without error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "positive duration") {
			t.Errorf("-batch-timeout %s: error %q does not explain the valid range", bad, err)
		}
	}
}
