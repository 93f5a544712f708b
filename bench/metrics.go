package main

// The metric tables. BENCHMARK.json at the repository root carries the same
// names, units, directions and bounds (TestMetricTablesMatchBenchmarkJSON
// holds the two together); the tables live here as well so the program can
// print units and apply bounds without reading a file outside bench/.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
}

// workloadDef names a workload and records why it was chosen.
type workloadDef struct {
	Name string
	Why  string
}

const (
	wPixelSeq     = "pixel_seq"
	wPixelOverlap = "pixel_overlap"
	wServeMulti   = "serve_multi"
	wSimSweep     = "sim_sweep"
	// wLiveSingle is a section of the traced run and not a workload: see
	// README.md, "Why live_single carries no bound".
	wLiveSingle = "live_single"
)

// workloads, in the order a sweep should run them: the processor-bound ones
// together, the one most exposed to the box's speed (pixel_seq) not first
// after an idle spell, and the sleep-bound one last. On the box this was
// written on, two minutes of load cost the processor-bound workloads a fifth
// of their speed and a few idle minutes gave it back.
var workloads = []workloadDef{
	{wPixelOverlap, "pixel_seq's video at depth 3 with a 5-10 ms emulated GPU phase every 2nd frame: the stagedRing prefetch overlaps render and pyramid with it, so loop and prefetch changes move this and not pixel_seq"},
	{wPixelSeq, "batch, one stream, rt.RunPipelined at depth 1 with no emulated GPU wait: render, pyramid, blob detect, Shi-Tomasi and LK do all the work, so kernel and allocation changes show here most cleanly"},
	{wSimSweep, "batch, virtual clock: sim.RunSet for five policies and sim.RunMulti, then loadtest.Run over the canonical matrix: the single-threaded scheduler loops that experiments and CI spend their time in"},
	{wServeMulti, "open loop, 16 model-mode streams over 2 batched detector slots through serve.Run: pixel cost is nil, so Pool, FairQueue.PopBatch and the goroutine hand-offs in rt decide the result"},
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them; what the unit of work is on each workload is stated in
// README.md ("End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"frames_per_s", "1/s", "higher", 0.25},
	{"calibrations_per_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"mean_f1", "ratio", "higher", 0.25},
	{"allocs_per_frame", "count", "lower", 0.08},
}

// loadtestScenarios are the loadtest.BenchConfigs names, in order; the
// per-scenario metric names derive from them.
var loadtestScenarios = []string{
	"unbatched-b1", "batched-b4-linger5ms", "batched-b8", "sequential-prep-b1", "pipelined-d3-b1",
}

// simPolicies are the phase-A policies of sim_sweep, in order, by the suffix
// of their per-layer metric.
var simPolicyNames = []string{"adavp", "mpdt", "marlin", "notracking", "continuous"}

// perLayer are the metrics of single layers, measured by the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		// The pixel layer walk: one span per call into a layer, in
		// rt.RunPipelined's order, the frame span as parent.
		lower("video.render_ms", "ms"),
		lower("imgproc.pyramid_ms", "ms"),
		lower("detect.prepare_ms", "ms"),
		lower("detect.blob_ms", "ms"),
		higher("detect.boxes", "count"),
		lower("track.init_ms", "ms"),
		lower("track.step_ms", "ms"),
		higher("track.objects", "count"),
		lower("overlay.draw_ms", "ms"),
		lower("metrics.f1_ms", "ms"),
		lower("frame.walk_ms", "ms"),
		lower("frame.walk_ms_p95", "ms"),
		lower("frame.unattributed_share", "ratio"),
		// Kernels under those calls, timed in isolation on the same frames.
		lower("imgproc.blur_ms", "ms"),
		lower("imgproc.gradients_ms", "ms"),
		lower("imgproc.resize_ms", "ms"),
		lower("imgproc.integral_ms", "ms"),
		lower("features.detect_ms", "ms"),
		higher("features.points", "count"),
		lower("flow.track_ms", "ms"),
		higher("flow.points", "count"),
		higher("flow.found_share", "ratio"),
		higher("par.blur_speedup", "ratio"),
		higher("par.pyramid_speedup", "ratio"),
		// rt, staged loop.
		lower("rt.loop_residual_ms", "ms"),
		higher("rt.overlap_gain", "ratio"),
		lower("rt.stale_refills", "count"),
		higher("rt.switches", "count"),
		// rt, live loop (the live_single section).
		lower("rt.detect_call_ms", "ms"),
		lower("rt.track_init_ms", "ms"),
		lower("rt.track_step_ms", "ms"),
		higher("rt.tracked_per_cycle", "count"),
		higher("rt.cycles", "count"),
		lower("rt.deferred", "count"),
		lower("rt.max_calib_age_ms", "ms"),
		lower("rt.max_slot_occupancy_ms", "ms"),
		higher("rt.prefetched_while_waiting", "count"),
		higher("rt.fresh_share", "ratio"),
		lower("rt.calib_interval_ms_p50", "ms"),
		lower("rt.calib_interval_ms_p95", "ms"),
		lower("frame_lag_ms_p90", "ms"),
		// serve (the serve_multi section, then the direct drives).
		higher("serve.admitted", "count"),
		lower("serve.refused", "count"),
		lower("serve.cancelled", "count"),
		higher("serve.batches", "count"),
		higher("serve.batch_fill", "ratio"),
		higher("serve.max_batch", "count"),
		higher("serve.fresh_share", "ratio"),
		lower("serve.calib_interval_ms_p50", "ms"),
		lower("serve.calib_interval_ms_p95", "ms"),
		lower("serve.frame_lag_ms_p90", "ms"),
		lower("serve.pool.acquire_wait_us_p50", "us"),
		lower("serve.pool.acquire_wait_us_p95", "us"),
		higher("serve.pool.grants_per_s", "1/s"),
		lower("serve.queue.push_popbatch_ns", "ns"),
	}
	// sim and serve/loadtest.
	for _, p := range simPolicyNames {
		defs = append(defs, lower("sim.run_us_per_frame."+p, "us"))
	}
	defs = append(defs,
		lower("sim.multi_us_per_frame", "us"),
		lower("video.generate_us_per_frame", "us"),
	)
	for _, s := range loadtestScenarios {
		defs = append(defs, lower("loadtest.run_ms."+s, "ms"))
	}
	defs = append(defs,
		lower("sim.model_error_cycles", "ratio"),
		// Go runtime, around the named workload's traced section.
		lower("runtime.gc_cycles", "count"),
		lower("runtime.gc_pause_ms", "ms"),
		lower("runtime.alloc_mb", "MB"),
		lower("runtime.heap_sys_mb", "MB"),
		lower("runtime.goroutines_end", "count"),
		lower("trace.overhead_share", "ratio"),
	)
	return defs
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a definition table, so that a name the
// table does not carry cannot be emitted and a missing one is noticed.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metricValue, len(defs))}
}

// set records a value; an unknown name is a bug in the benchmark.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// missing lists the table's names that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}
