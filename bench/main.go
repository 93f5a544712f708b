// Command bench is the repository's benchmark: workloads over the pixel,
// live serving and virtual-clock paths, driven only through the
// program's public functions, with inputs generated from a seed. An untraced
// run prints the end-to-end metrics; a traced run (-trace 1) prints the
// per-layer metrics by timing calls into each layer from this package.
// README.md has the tables; BENCHMARK.json at the repository root names
// every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"adavp/internal/par"
)

// heldOutSeed is the seed reserved for confirming a later claim: no one
// tunes against it, so a gain that holds on it was not fitted to seed 1.
const heldOutSeed = 20200708

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, in order)")
		seed     = flag.Uint64("seed", 1, "seed every input derives from")
		seconds  = flag.Float64("seconds", 12, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		aa       = flag.Bool("aa", false, "A/A mode: run every workload twice, order alternated, and compare against the bounds")
		smoke    = flag.Bool("smoke", false, "toy sizes (the tests' scale); not a measurement")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if !knownWorkload(n) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			os.Exit(2)
		}
	}
	clampWorkers()
	env := environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		ParWorkers: par.Workers(), Scale: sc.name, Seed: *seed, HeldOutSeed: heldOutSeed,
		Seconds: *seconds, Traced: *trace == 1,
	}

	ok := true
	if *aa {
		ok = runAA(names, env, sc)
	} else {
		for _, n := range names {
			out, err := runWorkload(n, *seed, *seconds, *trace == 1, sc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
				os.Exit(1)
			}
			out.print(env, len(names) > 1)
			ok = ok && out.correct()
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// clampWorkers keeps the pixel-kernel worker pool at or under GOMAXPROCS:
// par defaults to NumCPU, which oversubscribes when GOMAXPROCS was set
// lower, and an oversubscribed run measures the scheduler, not the kernels.
func clampWorkers() {
	if procs := runtime.GOMAXPROCS(0); par.Workers() > procs {
		par.SetWorkers(procs)
	}
}

// runWorkload dispatches one run.
func runWorkload(name string, seed uint64, seconds float64, traced bool, sc scale) (*outcome, error) {
	if traced {
		return runTraced(name, seed, seconds, sc)
	}
	switch name {
	case wPixelSeq, wPixelOverlap:
		return runPixel(name, seed, seconds, sc)
	case wServeMulti:
		return runLive(name, seed, seconds, sc)
	case wSimSweep:
		return runSimSweep(seed, seconds, sc)
	}
	return nil, fmt.Errorf("unknown workload")
}

// outcome is one run's result: the metrics, the operation counts, the failed
// checks and the detail printed beside them.
type outcome struct {
	workload  string
	metrics   *metricSet
	attempted int
	failed    int
	problems  []string
	detail    map[string]any
}

func newOutcome(workload string, defs []metricDef) *outcome {
	return &outcome{workload: workload, metrics: newMetricSet(defs), detail: make(map[string]any)}
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool {
	return len(o.problems) == 0 && o.failed == 0 && len(o.metrics.missing()) == 0
}

// environment is the record printed with every run.
type environment struct {
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	ParWorkers  int     `json:"par_workers"`
	Scale       string  `json:"scale"`
	Seed        uint64  `json:"seed"`
	HeldOutSeed uint64  `json:"held_out_seed"`
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
}

// print writes the detail line and then the result line. The result line
// carries exactly correct, attempted, failed and metrics when one workload
// was asked for, and the workload's name as well when several were.
func (o *outcome) print(env environment, named bool) {
	for _, name := range o.metrics.missing() {
		o.fail("metric %s was not measured", name)
	}
	detail := map[string]any{"workload": o.workload, "env": env, "detail": o.detail}
	if len(o.problems) > 0 {
		detail["failed_checks"] = o.problems
	}
	writeLine(detail)
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1
	}
	result := map[string]any{
		"correct":   o.correct(),
		"attempted": attempted,
		"failed":    o.failed,
		"metrics":   o.metrics.values,
	}
	if named {
		result["workload"] = o.workload
	}
	writeLine(result)
}

func writeLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encoding output: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// timeSetup runs set-up the given number of times and returns the wall times
// in seconds; the last run's products are the ones the caller keeps. setup_s
// is the median, so that one slow page-in does not read as a regression.
func timeSetup(repeats int, setup func() error) (dist, error) {
	times := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return dist{}, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return newDist(times), nil
}
