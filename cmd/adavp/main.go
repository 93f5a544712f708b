// Command adavp runs the AdaVP pipeline (or a baseline) over a synthetic
// video and reports the paper's metrics, optionally exporting the per-frame
// trace as CSV/JSON and rendered frames as PGM images. Fault campaigns are
// run with the -fault-* flags, against the virtual clock or (-live) the
// supervised goroutine pipeline.
//
// Examples:
//
//	adavp -scenario highway -frames 900
//	adavp -policy mpdt -setting 512 -scenario racetrack
//	adavp -scenario city-street -csv run.csv -json run.json
//	adavp -scenario highway -dump-frames 5 -dump-dir /tmp/frames
//	adavp -scenario highway -live -fault-rate 0.1 -fault-kinds hang,panic
//	adavp -scenario city-street -streams 8 -detector-slots 2
//	adavp -scenario highway -live -streams 4 -detector-slots 1
//	adavp -soak -streams 8 -detector-slots 2 -fault-rate 0.08 -soak-minutes 1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"adavp"
	"adavp/internal/chaos"
	"adavp/internal/core"
	"adavp/internal/fault"
	"adavp/internal/imgproc"
	"adavp/internal/metrics"
	"adavp/internal/overlay"
	"adavp/internal/serve"
	"adavp/internal/sim"
	"adavp/internal/video"
)

// cliOpts collects the parsed command line.
type cliOpts struct {
	scenario, policy       string
	setting                adavp.Setting
	frames                 int
	seed                   uint64
	pixel, perClass        bool
	csvPath, jsonPath      string
	dumpN                  int
	annotate               bool
	dumpDir                string
	live                   bool
	workers                int
	timeScale              float64
	metricsAddr            string
	streams, detectorSlots int
	faultRate              float64
	faultBurst             int
	faultKinds             []adavp.FaultKind
	faultSeed              uint64
	soak                   bool
	soakMinutes            float64
	churnRate              float64
	batch                  serve.BatchConfig
	pipelineDepth          int
}

// newFlagSet registers every flag on a fresh FlagSet writing into o. The
// -setting flag validates at parse time: an invalid pixel size fails the
// parse with a clear error instead of surviving until the run starts.
func newFlagSet(o *cliOpts, eh flag.ErrorHandling) *flag.FlagSet {
	fs := flag.NewFlagSet("adavp", eh)
	fs.StringVar(&o.scenario, "scenario", "highway", "scenario preset ("+scenarioList()+")")
	fs.StringVar(&o.policy, "policy", "adavp", "policy: adavp|mpdt|marlin|notracking|continuous")
	o.setting = adavp.Setting512
	fs.Func("setting", "fixed model setting (320|416|512|608); initial setting for adavp (default 512)", func(s string) error {
		px, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("setting %q is not a pixel size (use 320|416|512|608)", s)
		}
		set, err := parseSetting(px)
		if err != nil {
			return err
		}
		o.setting = set
		return nil
	})
	fs.IntVar(&o.frames, "frames", 900, "video length in frames (30 FPS)")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed (runs are reproducible)")
	fs.BoolVar(&o.pixel, "pixel", false, "use the real pixel detector and Lucas-Kanade tracker (slow)")
	fs.StringVar(&o.csvPath, "csv", "", "write the per-frame trace as CSV to this file")
	fs.StringVar(&o.jsonPath, "json", "", "write the run summary as JSON to this file")
	fs.IntVar(&o.dumpN, "dump-frames", 0, "render and save this many frames as PGM images")
	fs.BoolVar(&o.annotate, "annotate", false, "dump frames as truth-vs-output composites with drawn boxes")
	fs.BoolVar(&o.perClass, "per-class", false, "print the per-class precision/recall breakdown")
	fs.StringVar(&o.dumpDir, "dump-dir", ".", "directory for dumped frames")
	fs.IntVar(&o.workers, "workers", 0, "pixel-kernel worker pool size (0 = NumCPU); never changes results, only wall time")
	fs.BoolVar(&o.live, "live", false, "run the supervised goroutine pipeline instead of the virtual clock (adavp|mpdt only)")
	fs.Float64Var(&o.timeScale, "timescale", 0.02, "live-mode latency scale (1.0 = real time)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address (e.g. :9090) for the duration of the run")
	fs.IntVar(&o.streams, "streams", 1, "serve this many concurrent streams against the shared detector pool (adavp|mpdt; stream i uses seed+i)")
	fs.IntVar(&o.detectorSlots, "detector-slots", 1, "detector slots shared by all streams (K < streams queues requests oldest-calibration-first)")
	serve.BatchFlags(fs, &o.batch)
	o.pipelineDepth = 1
	fs.Func("pipeline-depth", "staged frame-prefetch depth for -live and -streams runs (integer in 1..16; >1 renders up to depth-1 of the tracker's planned frames ahead of the step in progress — including while the stream waits for a shared slot; 1 keeps the sequential path)", func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > 16 {
			return fmt.Errorf("pipeline depth %q out of range (use an integer in 1..16)", s)
		}
		o.pipelineDepth = n
		return nil
	})
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "fault-injection rate (probability per burst block); 0 disables")
	fs.IntVar(&o.faultBurst, "fault-burst", 1, "consecutive calls per injected fault")
	fs.Func("fault-kinds", "comma-separated fault kinds to inject ("+fault.KindList()+"; default: all)", func(s string) error {
		kinds, err := adavp.ParseFaultKinds(s)
		if err != nil {
			return err
		}
		o.faultKinds = kinds
		return nil
	})
	fs.Uint64Var(&o.faultSeed, "fault-seed", 0, "fault schedule seed (0: reuse -seed)")
	fs.BoolVar(&o.soak, "soak", false, "run the chaos soak: a deterministic same-seed sim soak pair, then a wall-clock live soak, each ending in a machine-checked invariant report")
	fs.Float64Var(&o.soakMinutes, "soak-minutes", 1, "wall-clock budget of the live soak, in minutes")
	fs.Float64Var(&o.churnRate, "churn-rate", 0.25, "per-round probability that a soak stream reconnects under a new identity")
	return fs
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adavp: ")
	var o cliOpts
	fs := newFlagSet(&o, flag.ExitOnError)
	_ = fs.Parse(os.Args[1:]) // ExitOnError: a parse failure never returns
	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

func run(o cliOpts) error {
	kind, err := parseScenario(o.scenario)
	if err != nil {
		return err
	}
	policy, err := parsePolicy(o.policy)
	if err != nil {
		return err
	}
	if o.streams < 1 {
		return fmt.Errorf("-streams %d: need at least one stream", o.streams)
	}
	if o.detectorSlots < 1 {
		return fmt.Errorf("-detector-slots %d: need at least one slot", o.detectorSlots)
	}
	opts := adavp.Options{
		Policy: policy, Setting: o.setting, Seed: o.seed, PixelMode: o.pixel,
		Workers: o.workers, PipelineDepth: o.pipelineDepth,
	}
	effective := adavp.SetWorkers(o.workers)
	if o.metricsAddr != "" {
		opts.Obs = adavp.NewMetricsRegistry()
		ctx, cancel := context.WithCancel(context.Background())
		srv, err := adavp.ServeMetrics(ctx, o.metricsAddr, opts.Obs)
		if err != nil {
			cancel()
			return err
		}
		fmt.Printf("metrics: http://%s/metrics (JSON at /debug/vars, profiling under /debug/pprof/)\n", srv.Addr())
		defer func() {
			cancel()
			<-srv.Done()
		}()
	}
	if o.faultRate > 0 {
		fseed := o.faultSeed
		if fseed == 0 {
			fseed = o.seed
		}
		opts.Fault = &adavp.FaultProfile{
			Rate: o.faultRate, Burst: o.faultBurst, Kinds: o.faultKinds, Seed: fseed,
		}
		fmt.Printf("fault profile: %s\n", opts.Fault)
	}

	if o.soak {
		return runSoak(opts, o)
	}

	if o.streams > 1 {
		fmt.Printf("pixel workers: %d (of %d CPUs)\n", effective, runtime.NumCPU())
		return runMulti(kind, opts, o)
	}

	v := adavp.GenerateVideo(kind, o.seed, o.frames)
	fmt.Printf("video: %s — %d frames (%.1f s), mean content change %.2f px/frame\n",
		v.Name, v.NumFrames(), adavp.VideoDuration(v).Seconds(), v.MeanChangeRate())
	fmt.Printf("pixel workers: %d (of %d CPUs)\n", effective, runtime.NumCPU())

	if o.live {
		return runLive(v, opts, o)
	}

	res, err := adavp.Run(v, opts)
	if err != nil {
		return err
	}

	fmt.Printf("policy: %s\n", res.Trace.Policy)
	fmt.Printf("accuracy (frames with F1>=0.7): %.3f\n", res.Accuracy)
	fmt.Printf("mean F1: %.3f\n", res.MeanF1)
	fmt.Printf("detection cycles: %d, setting switches: %d\n", len(res.Trace.Cycles), len(res.Trace.Switches))
	if usage := res.Trace.SettingUsage(); len(usage) > 1 {
		fmt.Print("setting usage:")
		for _, s := range core.AdaptiveSettings {
			if frac, ok := usage[s]; ok {
				fmt.Printf(" %d:%.0f%%", s.InputSize(), frac*100)
			}
		}
		fmt.Println()
	}
	e := adavp.Energy(res)
	fmt.Printf("energy (this run): GPU %.4f Wh, CPU %.4f Wh, total %.4f Wh\n", e.GPU, e.CPU, e.Total())
	printFaults(res.Faults)

	if o.perClass {
		report := metrics.NewClassReport()
		for i, out := range res.Outputs {
			report.Add(out.Detections, v.Truth(i), metrics.DefaultIoU)
		}
		fmt.Println("\nper-class breakdown:")
		if err := report.Print(os.Stdout); err != nil {
			return err
		}
	}

	if o.csvPath != "" {
		if err := writeFile(o.csvPath, res.Trace.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("wrote per-frame CSV to %s\n", o.csvPath)
	}
	if o.jsonPath != "" {
		if err := writeFile(o.jsonPath, res.Trace.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote run JSON to %s\n", o.jsonPath)
	}
	if o.dumpN > 0 {
		if err := dumpFrames(v, res, o.dumpN, o.annotate, o.dumpDir); err != nil {
			return err
		}
		fmt.Printf("wrote %d PGM frames to %s\n", o.dumpN, o.dumpDir)
	}
	return nil
}

// runLive executes the supervised goroutine pipeline and reports its
// fault/recovery accounting alongside the accuracy metrics. Trace-backed
// exports (-csv, -json, -dump-frames) apply to virtual-clock runs only.
func runLive(v *adavp.Video, opts adavp.Options, o cliOpts) error {
	if o.csvPath != "" || o.jsonPath != "" || o.dumpN > 0 {
		return fmt.Errorf("-csv, -json and -dump-frames need the virtual-clock trace; drop -live to use them")
	}
	res, err := adavp.RunLive(context.Background(), v, opts, o.timeScale)
	if res == nil {
		return err
	}
	if err != nil {
		fmt.Printf("run interrupted: %v\n", err)
	}
	fmt.Printf("policy: %s (live, timescale %.3g)\n", o.policy, o.timeScale)
	fmt.Printf("accuracy (frames with F1>=0.7): %.3f\n", res.Accuracy)
	fmt.Printf("mean F1: %.3f\n", res.MeanF1)
	fmt.Printf("health: %s\n", res.Health)
	g := res.Guard
	fmt.Printf("guard: %d timeouts, %d panics, %d empty bursts, %d retries, %d downgrades, %d recoveries\n",
		g.Timeouts, g.Panics, g.EmptyBursts, g.Retries, g.Downgrades, g.Recoveries)
	if res.PrefetchedWhileWaiting > 0 {
		fmt.Printf("pipelined: %d frames prefetched while waiting for the detector\n", res.PrefetchedWhileWaiting)
	}
	printFaults(res.Faults)
	return nil
}

// runMulti serves -streams concurrent streams of the same scenario (stream i
// generated and seeded with seed+i) against -detector-slots shared detector
// slots — virtual clock by default, the live goroutine pipelines with -live.
// Trace-backed single-stream reports are unavailable here.
func runMulti(kind adavp.Scenario, opts adavp.Options, o cliOpts) error {
	if o.csvPath != "" || o.jsonPath != "" || o.dumpN > 0 || o.perClass {
		return fmt.Errorf("-csv, -json, -dump-frames and -per-class report a single stream; drop -streams to use them")
	}
	videos := make([]*adavp.Video, o.streams)
	for i := range videos {
		videos[i] = adavp.GenerateVideo(kind, o.seed+uint64(i), o.frames)
	}
	fmt.Printf("serving: %d %s streams (%d frames each) over %d detector slot(s), batch capacity %d\n",
		o.streams, kind, o.frames, o.detectorSlots, o.batch.Size)
	so := adavp.ServeOptions{Slots: o.detectorSlots, BatchSize: o.batch.Size, BatchLinger: o.batch.Linger}

	if o.live {
		res, err := adavp.RunLiveMulti(context.Background(), videos, opts, o.timeScale, so)
		if err != nil {
			return err
		}
		prefetched := 0
		for _, s := range res.Streams {
			if s.Err != nil {
				fmt.Printf("stream %s: interrupted: %v\n", s.ID, s.Err)
				continue
			}
			r := s.Result
			fmt.Printf("stream %s: accuracy %.3f, mean F1 %.3f, deferred %d, health %s, %d downgrades\n",
				s.ID, r.Accuracy, r.MeanF1, s.Deferred, r.Health, r.Guard.Downgrades)
			prefetched += s.PrefetchedWhileWaiting
		}
		if prefetched > 0 {
			fmt.Printf("pipelined: %d frames prefetched while streams waited for a slot\n", prefetched)
		}
		return nil
	}

	res, err := adavp.RunMulti(videos, opts, so)
	if err != nil {
		return err
	}
	var maxAge time.Duration
	for _, s := range res.Streams {
		r := s.Result
		fmt.Printf("stream %s: accuracy %.3f, mean F1 %.3f, cycles %d, deferred %d, max slot wait %s, max calibration age %s\n",
			s.ID, r.Accuracy, r.MeanF1, len(r.Trace.Cycles), s.Deferred, s.MaxWait, s.MaxCalibAge)
		if s.MaxCalibAge > maxAge {
			maxAge = s.MaxCalibAge
		}
	}
	fmt.Printf("scheduler: max queue depth %d; max calibration age %s within fairness bound %s\n",
		res.MaxQueueDepth, maxAge, res.FairnessBound)
	return nil
}

// runSoak runs the chaos soak: first a pair of same-seed virtual-clock soaks
// (telemetry byte-parity, fairness-bound and per-scenario F1-floor
// invariants), then a wall-clock live soak under the shared detector pool
// (zero goroutine growth, bounded heap delta, fairness bound, escalation-
// budget recovery). Any violated invariant fails the command.
func runSoak(opts adavp.Options, o cliOpts) error {
	streams := o.streams
	if streams <= 1 {
		streams = 8 // a soak without slot contention proves nothing
	}
	cfg := chaos.Config{
		Streams:       streams,
		Slots:         o.detectorSlots,
		Batch:         o.batch,
		ChurnRate:     o.churnRate,
		Fault:         opts.Fault,
		Seed:          o.seed,
		WallBudget:    time.Duration(o.soakMinutes * float64(time.Minute)),
		TimeScale:     o.timeScale,
		PipelineDepth: o.pipelineDepth,
	}
	fmt.Printf("chaos soak: %d streams x %d detector slot(s), churn rate %.2f, seed %d\n",
		streams, o.detectorSlots, o.churnRate, o.seed)

	simRep, err := chaos.SoakSimParity(cfg)
	if err != nil {
		return err
	}
	if err := simRep.Print(os.Stdout); err != nil {
		return err
	}
	rtRep, err := chaos.SoakRT(context.Background(), cfg)
	if err != nil {
		return err
	}
	if err := rtRep.Print(os.Stdout); err != nil {
		return err
	}
	if n := len(simRep.Violations) + len(rtRep.Violations); n > 0 {
		return fmt.Errorf("chaos soak: %d invariant violation(s)", n)
	}
	fmt.Println("chaos soak: all invariants held")
	return nil
}

// printFaults summarizes a run's fault/supervision event log by kind.
func printFaults(events []adavp.FaultEvent) {
	if len(events) == 0 {
		return
	}
	counts := make(map[string]int)
	for _, ev := range events {
		key := ev.Component + "/" + ev.Action
		if ev.Kind != "" {
			key += ":" + ev.Kind
		}
		counts[key]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("fault events (%d):", len(events))
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, counts[k])
	}
	fmt.Println()
}

func parseScenario(name string) (adavp.Scenario, error) {
	for _, k := range video.EveryKind() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown scenario %q (have %s)", name, scenarioList())
}

func scenarioList() string {
	names := make([]string, 0, video.NumKinds+video.NumHostileKinds)
	for _, k := range video.EveryKind() {
		names = append(names, k.String())
	}
	return strings.Join(names, "|")
}

func parsePolicy(name string) (adavp.Policy, error) {
	switch strings.ToLower(name) {
	case "adavp":
		return adavp.PolicyAdaVP, nil
	case "mpdt":
		return adavp.PolicyMPDT, nil
	case "marlin":
		return adavp.PolicyMARLIN, nil
	case "notracking":
		return adavp.PolicyNoTracking, nil
	case "continuous":
		return adavp.PolicyContinuous, nil
	default:
		return sim.PolicyInvalid, fmt.Errorf("unknown policy %q", name)
	}
}

func parseSetting(px int) (adavp.Setting, error) {
	for _, s := range core.AdaptiveSettings {
		if s.InputSize() == px {
			return s, nil
		}
	}
	return core.SettingInvalid, fmt.Errorf("unknown setting %d (use 320|416|512|608)", px)
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}

func dumpFrames(v *adavp.Video, res *adavp.Result, n int, annotate bool, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	step := v.NumFrames() / n
	if step < 1 {
		step = 1
	}
	for i := 0; i < n && i*step < v.NumFrames(); i++ {
		idx := i * step
		img := v.Render(idx)
		if annotate {
			img = overlay.Annotate(img, v.Truth(idx), res.Outputs[idx])
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-frame-%04d.pgm", v.Name, idx))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("creating %s: %w", path, err)
		}
		err = imgproc.EncodePGM(f, img)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return nil
}
