package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// An invalid -batch-size must fail the flag parse itself (before any run
// state exists) with an error naming the valid range.
func TestBatchSizeFlagValidatesAtParseTime(t *testing.T) {
	for _, bad := range []string{"0", "-1", "65", "abc", "2.5"} {
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
}

func TestBatchSizeFlagAcceptsValidSizes(t *testing.T) {
	for _, arg := range []string{"1", "8", "64"} {
		var o cliOpts
		fs := newFlagSet(&o, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := fs.Parse([]string{"-batch-size", arg}); err != nil {
			t.Errorf("-batch-size %s rejected: %v", arg, err)
		}
	}
	var o cliOpts
	fs := newFlagSet(&o, flag.ContinueOnError)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.batch.Size != 1 {
		t.Errorf("default batch size %d, want 1 (unbatched)", o.batch.Size)
	}
}

// A non-positive or malformed -batch-timeout must fail the parse with an
// error showing valid duration examples.
func TestBatchTimeoutFlagValidatesAtParseTime(t *testing.T) {
	for _, bad := range []string{"0", "0s", "-5ms", "5", "soon"} {
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
	var o cliOpts
	fs := newFlagSet(&o, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse([]string{"-batch-timeout", "5ms"}); err != nil {
		t.Fatalf("-batch-timeout 5ms rejected: %v", err)
	}
	if o.batch.Linger != 5*time.Millisecond {
		t.Fatalf("-batch-timeout 5ms parsed to %v", o.batch.Linger)
	}
}

// The ad-hoc mode end to end: a small scenario through run() must print the
// table and pass its own schema check.
func TestRunAdhocScenario(t *testing.T) {
	var o cliOpts
	fs := newFlagSet(&o, flag.ContinueOnError)
	if err := fs.Parse([]string{"-streams", "64", "-slots", "2", "-batch-size", "4", "-horizon", "5s"}); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "adhoc") {
		t.Fatalf("table missing scenario name:\n%s", out.String())
	}
}
