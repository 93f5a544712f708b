// Package adavp is a Go reproduction of "Continuous, Real-Time Object
// Detection on Mobile Devices without Offloading" (Liu, Ding, Du; ICDCS
// 2020) — the AdaVP system: a parallel detection-and-tracking pipeline
// (MPDT) with runtime DNN model-setting adaptation.
//
// The package is the public facade over the internal implementation:
//
//   - Generate synthetic videos with known ground truth and a controllable
//     content changing rate (fourteen scenario presets from the paper's
//     dataset description).
//   - Run AdaVP or any of the paper's baselines (fixed-setting MPDT,
//     sequential MARLIN, no-tracking, continuous detection) over a video on
//     a deterministic virtual clock calibrated to the Jetson TX2, or live on
//     real goroutines.
//   - Evaluate runs with the paper's metrics (per-frame F1, per-video
//     accuracy) and energy model, and regenerate every table and figure of
//     the paper via the experiments harness.
//
// Quick start:
//
//	v := adavp.GenerateVideo(adavp.ScenarioHighway, 1, 450)
//	res, err := adavp.Run(v, adavp.Options{Policy: adavp.PolicyAdaVP})
//	if err != nil { ... }
//	fmt.Printf("accuracy: %.3f over %d frames\n", res.Accuracy, len(res.FrameF1))
//
// See the runnable programs under examples/ and the experiment index in
// DESIGN.md.
package adavp

import (
	"context"
	"fmt"
	"io"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/energy"
	"adavp/internal/experiments"
	"adavp/internal/fault"
	"adavp/internal/guard"
	"adavp/internal/obs"
	"adavp/internal/par"
	"adavp/internal/rt"
	"adavp/internal/serve"
	"adavp/internal/sim"
	"adavp/internal/trace"
	"adavp/internal/track"
	"adavp/internal/video"
)

// Re-exported core vocabulary.
type (
	// Class is an object category (car, truck, person, ...).
	Class = core.Class
	// Detection is a labeled, scored bounding box.
	Detection = core.Detection
	// Object is a ground-truth object instance.
	Object = core.Object
	// Setting is a DNN model setting (YOLOv3 input size).
	Setting = core.Setting
	// Frame is one camera frame (ground truth plus optional pixels).
	Frame = core.Frame
	// FrameOutput is the pipeline's displayed result for one frame.
	FrameOutput = core.FrameOutput
	// Video is a generated synthetic video.
	Video = video.Video
	// Scenario selects one of the fourteen content presets.
	Scenario = video.Kind
	// RunTrace is the detailed execution record of a run.
	RunTrace = trace.Run
	// EnergyBreakdown is per-rail energy in watt-hours.
	EnergyBreakdown = energy.Breakdown
	// AdaptationModel maps measured motion velocity to the next setting.
	AdaptationModel = adapt.Model
	// FaultProfile describes a deterministic fault-injection campaign; the
	// same profile injects the identical schedule into the virtual-clock
	// and live engines.
	FaultProfile = fault.Profile
	// FaultKind is one fault class of the taxonomy.
	FaultKind = fault.Kind
	// FaultEvent is one injected fault or supervision action in a run.
	FaultEvent = trace.FaultEvent
	// GuardStats are the supervision layer's fault/recovery counters.
	GuardStats = guard.Stats
	// HealthState is the live pipeline's supervision state.
	HealthState = guard.Health
	// MetricsRegistry collects a run's observability data: per-stage latency
	// histograms, frame/cycle/switch counters, guard health and an event
	// journal (internal/obs).
	MetricsRegistry = obs.Registry
	// MetricsServer is a running HTTP observability endpoint.
	MetricsServer = obs.Server
	// MetricsSnapshot is a deterministic point-in-time view of a registry.
	MetricsSnapshot = obs.Snapshot
)

// Fault kinds (see internal/fault for the taxonomy).
const (
	FaultEmpty   = fault.KindEmpty
	FaultGarbage = fault.KindGarbage
	FaultNaN     = fault.KindNaN
	FaultLatency = fault.KindLatency
	FaultHang    = fault.KindHang
	FaultPanic   = fault.KindPanic
)

// ParseFaultKinds parses a comma-separated fault-kind list ("hang,panic");
// an empty string yields the full taxonomy.
func ParseFaultKinds(s string) ([]FaultKind, error) { return fault.ParseKinds(s) }

// Model settings.
const (
	SettingTiny320 = core.SettingTiny320
	Setting320     = core.Setting320
	Setting416     = core.Setting416
	Setting512     = core.Setting512
	Setting608     = core.Setting608
	Setting704     = core.Setting704
)

// Scenario presets (the paper's fourteen categories).
const (
	ScenarioHighway      = video.KindHighway
	ScenarioIntersection = video.KindIntersection
	ScenarioCityStreet   = video.KindCityStreet
	ScenarioTrainStation = video.KindTrainStation
	ScenarioBusStation   = video.KindBusStation
	ScenarioResidential  = video.KindResidential
	ScenarioCarHighway   = video.KindCarHighway
	ScenarioCarDowntown  = video.KindCarDowntown
	ScenarioAirplanes    = video.KindAirplanes
	ScenarioBoat         = video.KindBoat
	ScenarioWildlife     = video.KindWildlife
	ScenarioRacetrack    = video.KindRacetrack
	ScenarioMeetingRoom  = video.KindMeetingRoom
	ScenarioSkatingRink  = video.KindSkatingRink
)

// Policy selects the pipeline schedule.
type Policy = sim.Policy

// Policies.
const (
	// PolicyAdaVP is the full system: MPDT plus model adaptation.
	PolicyAdaVP = sim.PolicyAdaVP
	// PolicyMPDT is parallel detection and tracking at a fixed setting.
	PolicyMPDT = sim.PolicyMPDT
	// PolicyMARLIN is the sequential detect-then-track baseline.
	PolicyMARLIN = sim.PolicyMARLIN
	// PolicyNoTracking detects the newest frame and holds results.
	PolicyNoTracking = sim.PolicyNoTracking
	// PolicyContinuous detects every frame with no skipping (not real time).
	PolicyContinuous = sim.PolicyContinuous
)

// GenerateVideo builds a deterministic synthetic video from a scenario
// preset, a seed and a length in frames (30 FPS, 320×180).
func GenerateVideo(s Scenario, seed uint64, frames int) *Video {
	return video.GenerateKind(fmt.Sprintf("%s-%d", s, seed), s, seed, frames)
}

// TestSet generates the standard 26-video evaluation set.
func TestSet(seed uint64, framesPerVideo int) []*Video {
	return video.TestSet(seed, framesPerVideo)
}

// TrainingSet generates the standard 32-video training set.
func TrainingSet(seed uint64, framesPerVideo int) []*Video {
	return video.TrainingSet(seed, framesPerVideo)
}

// Options configures a pipeline run.
type Options struct {
	// Policy selects the schedule; default PolicyAdaVP.
	Policy Policy
	// Setting is the fixed setting for non-adaptive policies and the
	// initial setting for AdaVP; default Setting512.
	Setting Setting
	// Seed derives all run randomness; runs are reproducible.
	Seed uint64
	// Alpha is the per-frame F1 threshold of the accuracy metric (0.7).
	Alpha float64
	// IoU is the detection-matching threshold (0.5).
	IoU float64
	// PixelMode runs the real pixel detector and Lucas–Kanade tracker over
	// rendered frames instead of the fast calibrated surrogates.
	PixelMode bool
	// Fault, when set, injects the profile's deterministic fault schedule
	// into the detector and tracker. The virtual clock maps timing faults
	// to lost results; the live pipeline executes them for real under the
	// supervision layer.
	Fault *FaultProfile
	// Workers sets the pixel-kernel worker pool for this process (0 keeps
	// the current setting, default NumCPU). The pool only affects wall
	// time: kernels are bitwise-deterministic at any worker count.
	Workers int
	// PipelineDepth, when > 1, runs the staged frame-prefetch pipeline on
	// the live paths: a pixel-mode RunLive stream renders up to PipelineDepth
	// upcoming frames ahead of its detector/tracker threads, and a
	// RunLiveMulti stream keeps that prefetch running even while blocked
	// waiting for a shared detector slot — overlapping its frame builds with
	// other streams' detections without ever touching the slot queue, so
	// grant order and the fairness bound are unchanged. On the virtual-clock
	// RunMulti the same depth enables the scheduler's prefetch accounting
	// (frames banked while waiting), which never alters the schedule.
	// Values <= 1 keep the sequential paths.
	PipelineDepth int
	// Obs, when set, receives the run's telemetry (see NewMetricsRegistry).
	// Virtual-clock runs publish virtual timestamps and stay byte-for-byte
	// deterministic; live runs publish wall-clock latencies.
	Obs *MetricsRegistry
}

// NewMetricsRegistry returns an empty observability registry to pass in
// Options.Obs and serve with ServeMetrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ServeMetrics exposes a registry over HTTP at addr (e.g. ":9090"):
// Prometheus text on /metrics, the JSON snapshot on /debug/vars, and the
// standard pprof endpoints under /debug/pprof/. The server runs until ctx is
// cancelled.
func ServeMetrics(ctx context.Context, addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return obs.StartServer(ctx, addr, reg)
}

// SetWorkers configures the pixel-kernel worker pool (n <= 0 resets to
// NumCPU) and returns the effective worker count.
func SetWorkers(n int) int {
	par.SetWorkers(n)
	return par.Workers()
}

// Workers returns the effective pixel-kernel worker count.
func Workers() int { return par.Workers() }

// Result is a completed, evaluated run.
type Result struct {
	// Accuracy is the paper's per-video metric: the fraction of frames with
	// F1 at or above Alpha.
	Accuracy float64
	// MeanF1 is the mean per-frame F1 score.
	MeanF1 float64
	// FrameF1 holds each frame's F1 against ground truth.
	FrameF1 []float64
	// Outputs holds the displayed detections per frame.
	Outputs []FrameOutput
	// Trace is the full execution record (cycles, switches, busy intervals).
	Trace *RunTrace
	// Faults interleaves injected faults and supervision actions.
	Faults []FaultEvent
	// Guard holds the supervision counters and Health the final state
	// (live runs; zero-valued for virtual-clock runs).
	Guard  GuardStats
	Health HealthState
	// Partial marks a live run cut short by context cancellation; the
	// metrics cover the frames that completed before the cut.
	Partial bool
	// PrefetchedWhileWaiting counts frames whose prefetch completed while
	// the live stream was blocked waiting for a shared detector slot
	// (Options.PipelineDepth > 1 in pixel mode; zero otherwise).
	PrefetchedWhileWaiting int
}

// simConfig builds the virtual-clock engine configuration of stream i
// (seed Seed+i) from opts; PolicyInvalid means AdaVP.
func simConfig(opts Options, i int) sim.Config {
	cfg := sim.Config{
		Policy:  opts.Policy,
		Setting: opts.Setting,
		Seed:    opts.Seed + uint64(i),
		Alpha:   opts.Alpha,
		IoU:     opts.IoU,
		Fault:   opts.Fault,
		Obs:     opts.Obs,
	}
	if cfg.Policy == sim.PolicyInvalid {
		cfg.Policy = PolicyAdaVP
	}
	if opts.Workers > 0 {
		par.SetWorkers(opts.Workers) // the pool is process-wide; sim.Config carries no worker count
	}
	if opts.PixelMode {
		cfg.PixelMode = true
		cfg.Detector = detect.NewBlobDetector()
		cfg.NewTracker = func(uint64) track.Tracker { return track.NewPixelTracker() }
	}
	return cfg
}

// simResult converts a virtual-clock run to the facade's Result.
func simResult(r *sim.Result) *Result {
	return &Result{
		Accuracy: r.Accuracy,
		MeanF1:   r.MeanF1,
		FrameF1:  r.Run.FrameF1,
		Outputs:  r.Run.Outputs,
		Trace:    r.Run,
		Faults:   r.Run.Faults,
	}
}

// Run executes a policy over a video on the deterministic virtual clock.
func Run(v *Video, opts Options) (*Result, error) {
	r, err := sim.Run(v, simConfig(opts, 0))
	if err != nil {
		return nil, fmt.Errorf("adavp: %w", err)
	}
	return simResult(r), nil
}

// RunLive executes the pipeline on real goroutines (detector thread, tracker
// thread, camera feeder), with component latencies emulated at the given
// time scale (1.0 = real time; 0.02 runs fifty times faster). Only AdaVP
// (adaptive=true) and fixed MPDT are available live. The run is supervised
// (internal/guard): detector hangs and panics degrade the pipeline instead
// of killing it, and the result carries the fault/recovery accounting. A
// cancelled run returns its partial Result alongside the error.
func RunLive(ctx context.Context, v *Video, opts Options, timeScale float64) (*Result, error) {
	cfg, err := rtConfig(opts, 0, timeScale)
	if err != nil {
		return nil, err
	}
	r, err := rt.Run(ctx, v, cfg)
	if r == nil {
		return nil, fmt.Errorf("adavp: %w", err)
	}
	if err != nil {
		err = fmt.Errorf("adavp: %w", err)
	}
	return rtResult(r), err
}

// rtConfig builds the live pipeline configuration of stream i (seed Seed+i)
// from opts. Only the parallel policies run live; PolicyInvalid means AdaVP.
func rtConfig(opts Options, i int, timeScale float64) (rt.Config, error) {
	cfg := rt.Config{
		Setting:       opts.Setting,
		Seed:          opts.Seed + uint64(i),
		TimeScale:     timeScale,
		PixelMode:     opts.PixelMode,
		Fault:         opts.Fault,
		Workers:       opts.Workers,
		Obs:           opts.Obs,
		PipelineDepth: opts.PipelineDepth,
	}
	if opts.Policy == sim.PolicyInvalid || opts.Policy == PolicyAdaVP {
		cfg.Adaptation = adapt.DefaultModel()
	} else if opts.Policy != PolicyMPDT {
		return cfg, fmt.Errorf("adavp: live pipeline supports PolicyAdaVP and PolicyMPDT, not %v", opts.Policy)
	}
	if opts.PixelMode {
		cfg.Detector = detect.NewBlobDetector()
		cfg.NewTracker = func(uint64) track.Tracker { return track.NewPixelTracker() }
	}
	return cfg, nil
}

// rtResult converts a live run to the facade's Result.
func rtResult(r *rt.Result) *Result {
	return &Result{
		Accuracy: r.Accuracy,
		MeanF1:   r.MeanF1,
		FrameF1:  r.FrameF1,
		Outputs:  r.Outputs,
		Faults:   r.Events,
		Guard:    r.Faults,
		Health:   r.Health,
		Partial:  r.Partial,

		PrefetchedWhileWaiting: r.PrefetchedWhileWaiting,
	}
}

// ServeOptions configures multi-stream serving: N independent streams share
// K detector slots (K < N queues detection requests oldest-calibration-first;
// see DESIGN.md §12 for the queueing model and fairness bound).
type ServeOptions struct {
	// Slots is K, the number of shared detector slots. Default 1.
	Slots int
	// QueueBound caps the detector wait queue. A stream that cannot enqueue
	// defers its detection and keeps tracking (backpressure — staleness
	// grows instead of memory). Default: one entry per stream, which never
	// refuses.
	QueueBound int
	// BatchSize is B, the maximum number of compatible requests (same model
	// setting) one slot grant drains from the wait queue and executes as a
	// single fused inference. Values < 1 mean 1 — the unbatched executor.
	BatchSize int
	// BatchLinger is how long a partially-filled batch may hold its slot
	// waiting for compatible arrivals. Honored exactly by the virtual-clock
	// scheduler; the live pool is work-conserving and ignores it.
	BatchLinger time.Duration
	// MaxStreams is the admission-control cap: larger stream sets are
	// rejected up front. 0 means unlimited.
	MaxStreams int
	// DowngradeBudget caps guard fault-escalation downgrades across ALL
	// streams of a live run, so a correlated fault burst cannot walk every
	// stream down to the smallest model at once. 0 means unlimited.
	DowngradeBudget int
	// DowngradeRefill, when positive alongside DowngradeBudget, restores one
	// downgrade grant per interval of pipeline time (saturating at the
	// budget), so escalation headroom recovers once a fault burst ends.
	DowngradeRefill time.Duration
}

// StreamRun is one stream's outcome in a multi-stream run.
type StreamRun struct {
	// ID names the stream ("s0", "s1", ...); it labels the stream's series
	// in Options.Obs (stream=<id>).
	ID string
	// Result is the stream's completed run (same schema as single-stream).
	Result *Result
	// Grants counts detector-slot grants and Deferred the requests refused
	// by the bounded queue.
	Grants, Deferred int
	// MaxWait, MaxOccupancy and MaxCalibAge are the virtual-clock
	// scheduler's per-stream accounting (zero for live runs, which publish
	// slot waits to the registry instead).
	MaxWait, MaxOccupancy, MaxCalibAge time.Duration
	// PrefetchedWhileWaiting counts frames the staged prefetch banked while
	// this stream waited for a detector slot (Options.PipelineDepth > 1).
	// Live pixel streams count real prefetched frame builds; the
	// virtual-clock scheduler counts its schedule-neutral accounting model's.
	PrefetchedWhileWaiting int
	// Err is the stream's pipeline error, if any (live cancellation).
	Err error
}

// MultiResult is a completed multi-stream run.
type MultiResult struct {
	// Streams holds one outcome per input video, in input order.
	Streams []StreamRun
	// MaxQueueDepth is the deepest the detector wait queue ever got
	// (virtual-clock runs).
	MaxQueueDepth int
	// FairnessBound is the guaranteed maximum calibration age for the run's
	// observed slot occupancy (virtual-clock runs): no stream's MaxCalibAge
	// exceeds it. Under batching this is the generalized
	// serve.FairnessBoundBatched.
	FairnessBound time.Duration
	// Batches counts slot grants and MaxBatch the largest number of
	// requests one grant fused (virtual-clock runs; 1 means batching never
	// engaged).
	Batches, MaxBatch int
	// SlotUtilization is the fraction of slot-time spent executing
	// detections over the run's horizon (virtual-clock runs; live runs
	// publish the equivalent series to Options.Obs instead).
	SlotUtilization float64
}

// RunMulti executes one stream per video against a shared detector pool on
// the deterministic virtual clock. Stream i runs opts with Seed+i; only the
// parallel policies (AdaVP, MPDT) can be scheduled. Two same-seed calls are
// byte-for-byte identical, including the telemetry in Options.Obs.
func RunMulti(videos []*Video, opts Options, so ServeOptions) (*MultiResult, error) {
	if so.MaxStreams > 0 && len(videos) > so.MaxStreams {
		return nil, fmt.Errorf("adavp: %d streams exceed the admission cap %d", len(videos), so.MaxStreams)
	}
	streams := make([]sim.MultiStream, len(videos))
	for i, v := range videos {
		streams[i] = sim.MultiStream{ID: fmt.Sprintf("s%d", i), Video: v, Config: simConfig(opts, i)}
	}
	batch := serve.BatchConfig{Size: so.BatchSize, Linger: so.BatchLinger}
	r, err := sim.RunMulti(streams, sim.MultiConfig{
		Slots:         so.Slots,
		QueueBound:    so.QueueBound,
		Batch:         batch,
		PipelineDepth: opts.PipelineDepth,
		Obs:           opts.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("adavp: %w", err)
	}
	out := &MultiResult{
		Streams:         make([]StreamRun, len(r.Streams)),
		MaxQueueDepth:   r.MaxQueueDepth,
		Batches:         r.Batches,
		MaxBatch:        r.MaxBatch,
		SlotUtilization: r.SlotUtilization,
	}
	var frameInterval time.Duration
	for _, v := range videos {
		frameInterval = max(frameInterval, v.FrameInterval())
	}
	out.FairnessBound = serve.FairnessBoundBatched(len(videos), so.Slots, batch.Size, r.MaxSingleOccupancy, frameInterval, batch.Linger)
	for i, s := range r.Streams {
		out.Streams[i] = StreamRun{
			ID:           s.ID,
			Result:       simResult(s.Result),
			Grants:       s.Grants,
			Deferred:     s.Deferred,
			MaxWait:      s.MaxWait,
			MaxOccupancy: s.MaxOccupancy,
			MaxCalibAge:  s.MaxCalibAge,

			PrefetchedWhileWaiting: s.PrefetchedWhileWaiting,
		}
	}
	return out, nil
}

// RunLiveMulti executes one supervised live pipeline per video, all
// contending for a shared pool of detector slots (internal/serve). Stream i
// runs opts with Seed+i. Each stream has its own tracker, adaptation state
// and guard supervisor; the slots, the downgrade budget and the registry are
// shared. As with RunLive, only AdaVP and MPDT run live. Cancelled streams
// carry their partial Result alongside StreamRun.Err.
func RunLiveMulti(ctx context.Context, videos []*Video, opts Options, timeScale float64, so ServeOptions) (*MultiResult, error) {
	specs := make([]serve.StreamSpec, len(videos))
	for i, v := range videos {
		cfg, err := rtConfig(opts, i, timeScale)
		if err != nil {
			return nil, err
		}
		specs[i] = serve.StreamSpec{ID: fmt.Sprintf("s%d", i), Video: v, Config: cfg}
	}
	r, err := serve.Run(ctx, specs, serve.RunConfig{
		Slots:           so.Slots,
		QueueBound:      so.QueueBound,
		Batch:           serve.BatchConfig{Size: so.BatchSize, Linger: so.BatchLinger},
		MaxStreams:      so.MaxStreams,
		DowngradeBudget: so.DowngradeBudget,
		DowngradeRefill: so.DowngradeRefill,
		PipelineDepth:   opts.PipelineDepth,
		Obs:             opts.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("adavp: %w", err)
	}
	out := &MultiResult{Streams: make([]StreamRun, len(r.Streams))}
	for i, s := range r.Streams {
		sr := StreamRun{ID: s.ID, Err: s.Err}
		if s.Result != nil {
			sr.Result = rtResult(s.Result)
			sr.Deferred = s.Result.Deferred
			sr.PrefetchedWhileWaiting = s.Result.PrefetchedWhileWaiting
		}
		out.Streams[i] = sr
	}
	return out, nil
}

// Energy integrates a run's busy intervals with the TX2 power model.
func Energy(res *Result) EnergyBreakdown {
	if res == nil || res.Trace == nil {
		return EnergyBreakdown{}
	}
	return energy.DefaultModel().Energy(res.Trace)
}

// VideoDuration returns a video's wall-clock length.
func VideoDuration(v *Video) time.Duration {
	return time.Duration(v.NumFrames()) * v.FrameInterval()
}

// RunExperiment regenerates one of the paper's tables or figures by id
// ("fig1".."fig11", "table2", "table3", or "all"), writing the report to w.
// A zero ExperimentScale uses the fast defaults.
func RunExperiment(id string, scale ExperimentScale, w io.Writer) error {
	return experiments.Run(id, experiments.Scale(scale), w)
}

// ExperimentScale sets experiment dataset sizes; see ExperimentIDs.
type ExperimentScale = experiments.Scale

// ExperimentIDs lists the available experiment identifiers.
func ExperimentIDs() []string { return experiments.IDs() }

// DefaultAdaptationModel returns the pretrained velocity-threshold model
// shipped with the library (regenerate with cmd/adavp-train).
func DefaultAdaptationModel() *AdaptationModel { return adapt.DefaultModel() }
