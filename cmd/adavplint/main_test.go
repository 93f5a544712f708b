package main

import (
	"bytes"
	"regexp"
	"testing"
)

// TestRun drives the command through run from this package's directory:
// exit status, and a regexp each over stdout and stderr ("^$" = silent).
func TestRun(t *testing.T) {
	cases := []struct {
		name           string
		args           []string
		code           int
		stdout, stderr string
	}{
		{"list names the suite in reporting order", []string{"-list"}, 0,
			`^detrand .*\nhotalloc .*\nbandsafe .*\nleakygo .*\npoolpair .*\n$`, `^$`},
		{"unknown analyzer lists the valid set", []string{"-only", "lockorder"}, 2,
			`^$`, `unknown analyzer "lockorder" \(valid: detrand, hotalloc, bandsafe, leakygo, poolpair\)`},
		{"-json is not a flag", []string{"-json"}, 2,
			`^$`, `flag provided but not defined: -json`},
		{"fixture directory fails with a positioned finding", []string{"-only", "poolpair", "../../internal/lint/testdata/src/poolpair"}, 1,
			`(?m)^\S*poolpair\.go:\d+:\d+: \[poolpair\] pool\.Get without a matching pool\.Put`, `1 finding\(s\)`},
		{"clean package is silent", []string{"../../internal/geom"}, 0, `^$`, `^$`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d", code, tc.code)
			}
			if !regexp.MustCompile(tc.stdout).Match(stdout.Bytes()) {
				t.Errorf("stdout %q does not match %s", stdout.String(), tc.stdout)
			}
			if !regexp.MustCompile(tc.stderr).Match(stderr.Bytes()) {
				t.Errorf("stderr %q does not match %s", stderr.String(), tc.stderr)
			}
		})
	}
}
