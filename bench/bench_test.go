package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {50, 0}, {99, 0}, // not even ten samples beyond p90
		{100, 90}, {199, 90}, // p95 would leave 9.95 beyond
		{200, 95}, {999, 95},
		{1000, 99}, {8000, 99},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestMedianQuartilesAndRank(t *testing.T) {
	odd := newDist([]float64{5, 1, 4, 2, 3})
	if m := odd.median(); m != 3 {
		t.Errorf("median of 1..5 = %v, want 3", m)
	}
	if q1, q3 := odd.quartiles(); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles of 1..5 = %v, %v, want 2, 4", q1, q3)
	}
	even := newDist([]float64{40, 10, 30, 20})
	if m := even.median(); m != 25 {
		t.Errorf("median of 10..40 = %v, want 25", m)
	}
	if q1, q3 := even.quartiles(); q1 != 17.5 || q3 != 32.5 {
		t.Errorf("quartiles of 10..40 = %v, %v, want 17.5, 32.5", q1, q3)
	}
	// Ceil-rank percentiles: the smallest sample with p% at or below it.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	d := newDist(hundred)
	for p, want := range map[float64]float64{50: 50, 90: 90, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := d.at(p); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", p, got, want)
		}
	}
	var empty dist
	if empty.median() != 0 || empty.at(95) != 0 {
		t.Error("an empty sample must read 0")
	}
	s := d.summary()
	if s.N != 100 || s.TailP != 90 || s.TailAt != 90 {
		t.Errorf("summary of 1..100 = %+v, want n 100 with p90 = 90 as its tail", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{name: "frame", parent: noParent, start: at(0), end: at(100)},
		{name: "render", parent: 0, start: at(10), end: at(30)},
		{name: "step", parent: 0, start: at(40), end: at(70)},
		{name: "flow", parent: 2, start: at(45), end: at(65)},  // grandchild: the step's, not the frame's
		{name: "late", parent: 0, start: at(90), end: at(120)}, // runs past its parent: clipped
		{name: "other", parent: noParent, start: at(130), end: at(140)},
	}
	self := selfTimes(spans)
	want := []time.Duration{at(100 - 20 - 30 - 10), at(20), at(30 - 20), at(20), at(30), at(10)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, self[i], want[i])
		}
	}
	// The reconciliation the traced walk relies on: children (clipped to the
	// parent) plus the parent's self time make up the parent's span.
	var children time.Duration
	for _, s := range spans[1:5] {
		if s.parent == 0 {
			end := s.end
			if end > spans[0].end {
				end = spans[0].end
			}
			children += end - s.start
		}
	}
	if children+self[0] != spans[0].dur() {
		t.Errorf("children %v + self %v != frame span %v", children, self[0], spans[0].dur())
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder(4)
	root := rec.begin("frame", noParent)
	child := rec.begin("render", root)
	rec.end(child)
	rec.end(root)
	if rec.spans[child].parent != root || rec.spans[root].parent != noParent {
		t.Fatalf("parents not recorded: %+v", rec.spans)
	}
	if rec.spans[child].start < rec.spans[root].start || rec.spans[child].end > rec.spans[root].end {
		t.Fatalf("child %+v not inside parent %+v", rec.spans[child], rec.spans[root])
	}
}

func TestCompareAA(t *testing.T) {
	first := map[string]metricValue{}
	second := map[string]metricValue{}
	for _, d := range endToEnd {
		first[d.Name] = metricValue{Value: 100}
		second[d.Name] = metricValue{Value: 100 * (1 + d.Bound/2)}
	}
	if _, ok := compareAA(first, second); !ok {
		t.Error("runs half a bound apart must agree")
	}
	second["frames_per_s"] = metricValue{Value: 100 * (1 - 2*endToEnd[1].Bound)}
	rows, ok := compareAA(first, second)
	if ok || rows["frames_per_s"].Within {
		t.Error("runs two bounds apart must not agree")
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return b
}

// TestMetricTablesMatchBenchmarkJSON holds the program's tables and the
// contract file together: same names in the same order, same units,
// directions and bounds, all inside the contract's limits.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d (2 to 8 allowed)", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d (at most 16)", len(b.EndToEnd), len(endToEnd))
	}
	haveSetup := false
	for i, m := range b.EndToEnd {
		unique(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s is outside the contract: %+v", m.Name, m)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			haveSetup = true
		}
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d (1 to 128 allowed)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		unique(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer metric %s is outside the contract: %+v", m.Name, m)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1 to 60", b.RunSeconds)
	}
	// The driver's budget: 4 + 22 runs per workload, each of run_seconds plus
	// set-up, inside 3420 s with room for two builds.
	if runs := 4 + 22*len(b.Workloads); float64(runs)*(float64(b.RunSeconds)+8) > 3300 {
		t.Errorf("%d runs of %d s plus set-up do not fit the driver's 3420 s", runs, b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// TestSmokeAllWorkloads runs all five workloads at toy size, untraced and
// traced, and checks every emitted name against the tables (and so, by the
// test above, against BENCHMARK.json).
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the five workloads at toy size")
	}
	clampWorkers()
	const seconds = 0.3
	for _, w := range workloads {
		out, err := runWorkload(w.Name, 1, seconds, false, smokeScale)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkOutcome(t, out, endToEnd, true)
	}
	// One traced run measures every layer; which workload it is named for
	// only selects the runtime and overhead figures.
	out, err := runWorkload(wServeMulti, 1, seconds, true, smokeScale)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	checkOutcome(t, out, perLayer, false)
}

func checkOutcome(t *testing.T, out *outcome, defs []metricDef, nonZero bool) {
	t.Helper()
	if missing := out.metrics.missing(); len(missing) > 0 {
		t.Errorf("%s: metrics not measured: %v", out.workload, missing)
	}
	if len(out.metrics.values) != len(defs) {
		t.Errorf("%s: %d metrics emitted, the table has %d", out.workload, len(out.metrics.values), len(defs))
	}
	for name, v := range out.metrics.values {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s = %v", out.workload, name, v.Value)
		}
		if nonZero && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", out.workload, name, v.Value)
		}
	}
	if out.failed != 0 || len(out.problems) != 0 {
		t.Errorf("%s: %d failed operations, failed checks %v", out.workload, out.failed, out.problems)
	}
	if out.attempted < 1 {
		t.Errorf("%s: attempted %d operations", out.workload, out.attempted)
	}
}
