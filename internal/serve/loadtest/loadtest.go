// Package loadtest is the serving layer's load generator: a deterministic
// discrete-event harness that drives thousands of synthetic detection
// streams through serve.RunVirtual — the same virtual-clock scheduler
// function sim.RunMulti runs, over the same serve.FairQueue and
// serve.BatchLatency the live pool uses — under arrival churn
// (connect/disconnect cycles), flash crowds (cohorts connecting at once)
// and setting skew (mixed model settings that fragment batches).
//
// Unlike sim.RunMulti it does not run tracker/detector engines per stream;
// each grant's slot occupancy comes from the calibrated core.LatencyModel
// (setting switch + one inference at the stream's setting), which makes a
// 1000-stream, minutes-long horizon run in well under a second. What lives
// here is the client side only: the arrival process, the per-request samples
// and the Report. The harness pins the SLO story: per-request slot-wait,
// execution and end-to-end latency distributions (p50/p95/p99/max), SLO
// attainment, and the generalized fairness bound serve.FairnessBoundBatched
// checked against the worst observed calibration age.
//
// Determinism contract: the package is on the detrand deterministic-package
// list — everything derives from Config.Seed through internal/rng on a
// virtual clock; two same-config runs return identical Reports.
package loadtest

import (
	"fmt"
	"math"
	"sort"
	"time"

	"adavp/internal/core"
	"adavp/internal/rng"
	"adavp/internal/serve"
)

// Config parameterizes one load-generation scenario. Zero-value fields take
// the documented defaults.
type Config struct {
	// Name labels the scenario in the Report (and in BENCH_serve.json).
	Name string
	// Streams is N, the number of synthetic streams. Default 64.
	Streams int
	// Slots is K, the number of shared detector slots. Default 2.
	Slots int
	// QueueBound caps the wait queue (serve.NewFairQueue). Default: Streams,
	// which never refuses — each stream keeps at most one request in flight.
	QueueBound int
	// Batch configures the batching executor under test; the zero value is
	// the unbatched one-request-per-grant scheduler. Linger is honored
	// exactly (serve.RunVirtual owns the clock).
	Batch serve.BatchConfig
	// FrameInterval is the camera interval: a stream re-requests one interval
	// after its previous calibration completes. Default 33ms (~30 FPS).
	FrameInterval time.Duration
	// Horizon is the virtual-time length of the run: no stream issues a new
	// request past it (in-flight requests drain). Default 60s.
	Horizon time.Duration
	// Settings is the model-setting palette. The first entry is the dominant
	// setting; SettingSkew routes a fraction of (re)connects to the rest.
	// Default: {Setting512}.
	Settings []core.Setting
	// SettingSkew is the probability that a stream draws a non-dominant
	// setting at connect/reconnect, fragmenting batches (a batch drain stops
	// at the first incompatible head). 0 disables skew. Default 0.
	SettingSkew float64
	// ChurnRate is the expected number of disconnect/reconnect cycles per
	// stream per virtual minute; off periods average a quarter of on
	// periods. 0 disables churn. A reconnecting stream redraws its setting
	// and restarts its staleness clock.
	ChurnRate float64
	// FlashCrowds is the number of cohorts that connect simultaneously,
	// spread evenly across the horizon; each cohort is FlashFraction of the
	// stream population held back until its crowd instant. 0 disables.
	FlashCrowds int
	// FlashFraction is the fraction of streams per flash crowd. Default 0.25.
	FlashFraction float64
	// SLO is the end-to-end (request → calibration published) latency target
	// that attainment is measured against. Default 1s.
	SLO time.Duration
	// Seed derives every random choice. Default 1.
	Seed uint64
	// PipelineDepth models the staged frame-prefetch pipeline. 0 (default)
	// is the legacy request model: frame preparation is not on the request
	// path at all. 1 is the sequential staged reference: each cycle's
	// prepare span (render + detector-input build, drawn from
	// core.LatencyModel.FeatureExtract) sits on the critical path between a
	// calibration completing and the next request issuing. >1 is the
	// pipelined column: the prefetch stage runs while the stream waits for
	// its slot and while its grant executes, so the prepare overlaps that
	// span and only the un-overlapped remainder delays the next request.
	PipelineDepth int
}

func (c Config) withDefaults() Config {
	if c.Streams <= 0 {
		c.Streams = 64
	}
	if c.Slots <= 0 {
		c.Slots = 2
	}
	if c.QueueBound <= 0 {
		c.QueueBound = c.Streams
	}
	c.Batch = c.Batch.WithDefaults() // the Report echoes the effective values
	if c.FrameInterval <= 0 {
		c.FrameInterval = 33 * time.Millisecond
	}
	if c.Horizon <= 0 {
		c.Horizon = 60 * time.Second
	}
	if len(c.Settings) == 0 {
		c.Settings = []core.Setting{core.Setting512}
	}
	if c.FlashFraction <= 0 || c.FlashFraction > 1 {
		c.FlashFraction = 0.25
	}
	if c.SLO <= 0 {
		c.SLO = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Quantiles is one latency distribution, in milliseconds.
type Quantiles struct {
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// Report is one scenario's outcome — the JSON shape committed to
// BENCH_serve.json. All durations are milliseconds of virtual time.
type Report struct {
	// Scenario echo.
	Name            string  `json:"name"`
	Streams         int     `json:"streams"`
	Slots           int     `json:"slots"`
	QueueBound      int     `json:"queue_bound"`
	BatchSize       int     `json:"batch_size"`
	LingerMS        float64 `json:"linger_ms"`
	FrameIntervalMS float64 `json:"frame_interval_ms"`
	HorizonMS       float64 `json:"horizon_ms"`
	ChurnPerMin     float64 `json:"churn_per_min"`
	FlashCrowds     int     `json:"flash_crowds"`
	SettingSkew     float64 `json:"setting_skew"`
	Seed            uint64  `json:"seed"`
	PipelineDepth   int     `json:"pipeline_depth"`

	// Flow accounting. Requests = Grants + Deferred.
	Requests       int     `json:"requests"`
	Grants         int     `json:"grants"`
	Deferred       int     `json:"deferred"`
	Reconnects     int     `json:"reconnects"`
	Batches        int     `json:"batches"`
	MaxBatch       int     `json:"max_batch"`
	MeanBatchFill  float64 `json:"mean_batch_fill"`
	PeakQueueDepth int     `json:"peak_queue_depth"`

	// Latency distributions: queueing (request → grant), execution
	// (grant → batch completion) and end-to-end (request → calibration),
	// plus the staleness distribution between consecutive calibrations.
	Wait     Quantiles `json:"slot_wait"`
	Exec     Quantiles `json:"slot_exec"`
	E2E      Quantiles `json:"e2e"`
	CalibAge Quantiles `json:"calib_age"`

	// The throughput story: granted calibrations per second of virtual
	// makespan, plus the prepare-span accounting behind the pipelined
	// column — how much prepare time the model put on the request path and
	// how much of it the staged prefetch hid by overlapping slot wait and
	// execution. PrepareHiddenMS is zero unless PipelineDepth > 1.
	ThroughputRPS   float64 `json:"throughput_rps"`
	PrepareMS       float64 `json:"prepare_total_ms"`
	PrepareHiddenMS float64 `json:"prepare_hidden_ms"`

	// The SLO story: fraction of granted requests whose end-to-end latency
	// met the target.
	SLOMS         float64 `json:"slo_ms"`
	SLOAttainment float64 `json:"slo_attainment"`

	// The fairness story: worst observed calibration age against the
	// generalized bound computed from the worst single-request occupancy.
	// The bound is enforceable only when nothing was deferred (a refused
	// request retries a frame later, which the bound's derivation excludes).
	MaxSingleOccMS   float64 `json:"max_single_occupancy_ms"`
	FairnessBoundMS  float64 `json:"fairness_bound_ms"`
	MaxCalibAgeMS    float64 `json:"max_calib_age_ms"`
	BoundEnforceable bool    `json:"bound_enforceable"`
	BoundHeld        bool    `json:"bound_held"`
}

// Validate checks a Report against the BENCH_serve.json schema: scenario
// fields present, flow accounting consistent, distributions ordered, the
// attainment a valid fraction, and the fairness bound held whenever it was
// enforceable. The loadgen smoke gate and the committed-artifact test both
// run every report through it.
func (r *Report) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("loadtest: report missing name")
	}
	if r.Streams < 1 || r.Slots < 1 || r.BatchSize < 1 || r.QueueBound < 1 {
		return fmt.Errorf("loadtest: %s: non-positive topology (streams %d, slots %d, batch %d, bound %d)",
			r.Name, r.Streams, r.Slots, r.BatchSize, r.QueueBound)
	}
	if r.Grants < 1 {
		return fmt.Errorf("loadtest: %s: no grants recorded", r.Name)
	}
	if r.Requests != r.Grants+r.Deferred {
		return fmt.Errorf("loadtest: %s: flow imbalance: %d requests != %d grants + %d deferred",
			r.Name, r.Requests, r.Grants, r.Deferred)
	}
	if r.Batches < 1 || r.MaxBatch < 1 || r.MaxBatch > r.BatchSize {
		return fmt.Errorf("loadtest: %s: batch accounting out of range (batches %d, max %d, capacity %d)",
			r.Name, r.Batches, r.MaxBatch, r.BatchSize)
	}
	if r.MeanBatchFill < 1 || r.MeanBatchFill > float64(r.BatchSize) {
		return fmt.Errorf("loadtest: %s: mean batch fill %.3f outside [1, %d]", r.Name, r.MeanBatchFill, r.BatchSize)
	}
	for _, q := range []struct {
		name string
		q    Quantiles
	}{{"slot_wait", r.Wait}, {"slot_exec", r.Exec}, {"e2e", r.E2E}, {"calib_age", r.CalibAge}} {
		if q.q.P50 < 0 || q.q.P50 > q.q.P95 || q.q.P95 > q.q.P99 || q.q.P99 > q.q.Max {
			return fmt.Errorf("loadtest: %s: %s quantiles not ordered: %+v", r.Name, q.name, q.q)
		}
	}
	if r.SLOAttainment < 0 || r.SLOAttainment > 1 {
		return fmt.Errorf("loadtest: %s: SLO attainment %.3f outside [0, 1]", r.Name, r.SLOAttainment)
	}
	if r.ThroughputRPS <= 0 {
		return fmt.Errorf("loadtest: %s: non-positive throughput %.3f rps", r.Name, r.ThroughputRPS)
	}
	if r.PrepareHiddenMS < 0 || r.PrepareHiddenMS > r.PrepareMS {
		return fmt.Errorf("loadtest: %s: hidden prepare %.1fms outside [0, total %.1fms]",
			r.Name, r.PrepareHiddenMS, r.PrepareMS)
	}
	if r.PipelineDepth <= 1 && r.PrepareHiddenMS != 0 {
		return fmt.Errorf("loadtest: %s: sequential run hid %.1fms of prepare", r.Name, r.PrepareHiddenMS)
	}
	if r.FairnessBoundMS <= 0 {
		return fmt.Errorf("loadtest: %s: non-positive fairness bound", r.Name)
	}
	if r.BoundEnforceable && !r.BoundHeld {
		return fmt.Errorf("loadtest: %s: fairness bound VIOLATED: max calib age %.1fms over bound %.1fms",
			r.Name, r.MaxCalibAgeMS, r.FairnessBoundMS)
	}
	return nil
}

// lstream is one synthetic stream's generator state; serve.RunVirtual owns
// its request state (when it asked, whether it is queued or retired).
type lstream struct {
	id      string
	lat     *core.LatencyModel // per-grant occupancy draws
	churn   *rng.Stream        // on/off window draws
	pick    *rng.Stream        // setting draws
	setting core.Setting
	onUntil time.Duration // end of the current connected window
	// calibValid gates staleness samples: false before the first calibration
	// of a connected window, so ages never span a disconnect.
	calibValid bool
	lastCalib  time.Duration
}

// generator is the load generator's side of serve.VirtualStreams: the
// synthetic streams, their arrival process and the per-request samples the
// Report's distributions are cut from.
type generator struct {
	cfg    Config
	onMean time.Duration // mean connected window; 0 without churn
	ss     []lstream

	deferred, reconnects, sloMet  int
	waits, execs, e2es, ages      []float64
	maxAge, prepTotal, prepHidden time.Duration
}

// newGenerator builds the stream population and returns it with each
// stream's first request time. Flash crowds claim the tail of the
// population, one contiguous cohort per crowd held back until its crowd
// instant; everyone else connects staggered across the first frame interval.
func newGenerator(cfg Config) (*generator, []time.Duration) {
	g := &generator{cfg: cfg, ss: make([]lstream, cfg.Streams)}
	if cfg.ChurnRate > 0 {
		g.onMean = time.Duration(float64(time.Minute) / cfg.ChurnRate)
	}
	crowdSize := 0
	if cfg.FlashCrowds > 0 {
		crowdSize = max(int(cfg.FlashFraction*float64(cfg.Streams)), 1)
		if crowdSize*cfg.FlashCrowds > cfg.Streams/2 {
			crowdSize = max(cfg.Streams/2/cfg.FlashCrowds, 1)
		}
	}
	root := rng.New(cfg.Seed).DeriveString("loadtest")
	start := make([]time.Duration, cfg.Streams)
	for i := range g.ss {
		sr := root.Derive(uint64(i)).DeriveString("stream")
		s := &g.ss[i]
		*s = lstream{
			id:    fmt.Sprintf("ld%d", i),
			lat:   core.NewLatencyModel(sr.DeriveString("lat")),
			churn: sr.DeriveString("churn"),
			pick:  sr.DeriveString("pick"),
		}
		s.setting = g.drawSetting(s)
		start[i] = cfg.FrameInterval * time.Duration(i) / time.Duration(cfg.Streams)
		if crowd := crowdOf(i, cfg.Streams, crowdSize, cfg.FlashCrowds); crowd >= 0 {
			start[i] = cfg.Horizon * time.Duration(crowd+1) / time.Duration(cfg.FlashCrowds+1)
		}
		if g.onMean > 0 {
			s.onUntil = start[i] + expDur(s.churn, g.onMean)
		}
	}
	return g, start
}

// drawSetting picks a stream's setting at connect/reconnect: the dominant
// one, or with probability SettingSkew one of the rest.
func (g *generator) drawSetting(s *lstream) core.Setting {
	c := &g.cfg
	if c.SettingSkew > 0 && len(c.Settings) > 1 && s.pick.Bool(c.SettingSkew) {
		return c.Settings[1+s.pick.Intn(len(c.Settings)-1)]
	}
	return c.Settings[0]
}

// advance rolls a request instant forward through disconnect windows and the
// horizon: a request landing past the connected window slips to the next
// reconnect (staleness clock reset, setting redrawn), and a request past the
// horizon retires the stream (ok false).
func (g *generator) advance(s *lstream, at time.Duration) (time.Duration, bool) {
	if g.onMean > 0 {
		for at >= s.onUntil {
			off := expDur(s.churn, g.onMean/4)
			start := s.onUntil + off
			s.onUntil = start + expDur(s.churn, g.onMean)
			if at < start {
				at = start
			}
			s.calibValid = false
			s.setting = g.drawSetting(s)
			g.reconnects++
		}
	}
	return at, at <= g.cfg.Horizon
}

func (g *generator) Key(i int) serve.Request {
	s := &g.ss[i]
	return serve.Request{Stream: s.id, Setting: s.setting, LastCalib: s.lastCalib}
}

// Refused defers the request by one frame interval.
func (g *generator) Refused(i int, at time.Duration) (time.Duration, bool) {
	g.deferred++
	return g.advance(&g.ss[i], at+g.cfg.FrameInterval)
}

// Plan draws the request's single-request span from the calibrated latency
// model: setting switch plus one inference at the stream's setting.
func (g *generator) Plan(i int, requested, grant time.Duration) (time.Duration, bool) {
	s := &g.ss[i]
	return s.lat.SettingSwitch() + s.lat.Detect(s.setting), true
}

// Complete samples the finished request and schedules the stream's next one
// a frame interval after its calibration.
func (g *generator) Complete(i int, requested, grant, end time.Duration) (time.Duration, bool) {
	s := &g.ss[i]
	g.waits = append(g.waits, ms(grant-requested))
	g.execs = append(g.execs, ms(end-grant))
	e2e := end - requested
	g.e2es = append(g.e2es, ms(e2e))
	if e2e <= g.cfg.SLO {
		g.sloMet++
	}
	if s.calibValid {
		age := end - s.lastCalib
		g.ages = append(g.ages, ms(age))
		g.maxAge = max(g.maxAge, age)
	}
	s.calibValid = true
	s.lastCalib = end
	next := end + g.cfg.FrameInterval
	// The prepare model behind the pipelined column: sequentially (depth 1)
	// the frame-prepare span delays the next request; pipelined (depth > 1),
	// the prefetch stage ran during this cycle's slot wait and execution, so
	// only the remainder the overlap could not cover stays on the path.
	if g.cfg.PipelineDepth >= 1 {
		prep := s.lat.FeatureExtract()
		g.prepTotal += prep
		if g.cfg.PipelineDepth > 1 {
			overlap := min(e2e, prep) // wait + exec this cycle
			prep -= overlap
			g.prepHidden += overlap
		}
		next += prep
	}
	return g.advance(s, next)
}

// Run executes one scenario through serve.RunVirtual and returns its report.
// Pure function of cfg: same config, same report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	g, start := newGenerator(cfg)
	sched := serve.RunVirtual(start, g, serve.VirtualConfig{Slots: cfg.Slots, QueueBound: cfg.QueueBound, Batch: cfg.Batch})
	bound := serve.FairnessBoundBatched(cfg.Streams, cfg.Slots, cfg.Batch.Size, sched.MaxSingleSpan, cfg.FrameInterval, cfg.Batch.Linger)
	rep := &Report{
		Name:            cfg.Name,
		Streams:         cfg.Streams,
		Slots:           cfg.Slots,
		QueueBound:      cfg.QueueBound,
		BatchSize:       cfg.Batch.Size,
		LingerMS:        ms(cfg.Batch.Linger),
		FrameIntervalMS: ms(cfg.FrameInterval),
		HorizonMS:       ms(cfg.Horizon),
		ChurnPerMin:     cfg.ChurnRate,
		FlashCrowds:     cfg.FlashCrowds,
		SettingSkew:     cfg.SettingSkew,
		Seed:            cfg.Seed,
		PipelineDepth:   cfg.PipelineDepth,

		// Every admitted request is eventually granted: the run drains.
		Requests:       sched.Granted + g.deferred,
		Grants:         sched.Granted,
		Deferred:       g.deferred,
		Reconnects:     g.reconnects,
		Batches:        sched.Batches,
		MaxBatch:       sched.MaxBatch,
		MeanBatchFill:  float64(sched.Granted) / float64(sched.Batches),
		PeakQueueDepth: sched.PeakQueueDepth,

		Wait:     quantiles(g.waits),
		Exec:     quantiles(g.execs),
		E2E:      quantiles(g.e2es),
		CalibAge: quantiles(g.ages),

		ThroughputRPS:   float64(sched.Granted) / sched.Horizon.Seconds(),
		PrepareMS:       ms(g.prepTotal),
		PrepareHiddenMS: ms(g.prepHidden),

		SLOMS:         ms(cfg.SLO),
		SLOAttainment: float64(g.sloMet) / float64(sched.Granted),

		MaxSingleOccMS:   ms(sched.MaxSingleSpan),
		FairnessBoundMS:  ms(bound),
		MaxCalibAgeMS:    ms(g.maxAge),
		BoundEnforceable: g.deferred == 0,
		BoundHeld:        g.maxAge <= bound,
	}
	if rep.Name == "" {
		rep.Name = "adhoc"
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

// crowdOf returns the flash-crowd index stream i belongs to, or -1. Crowds
// claim contiguous cohorts from the tail of the population: crowd 0 takes
// the last crowdSize streams, crowd 1 the crowdSize before them, and so on.
func crowdOf(i, streams, crowdSize, crowds int) int {
	if crowds <= 0 || crowdSize <= 0 {
		return -1
	}
	fromEnd := streams - 1 - i
	c := fromEnd / crowdSize
	if c < crowds {
		return c
	}
	return -1
}

// expDur draws an exponential duration with the given mean, floored at one
// millisecond so on/off windows always make progress.
func expDur(r *rng.Stream, mean time.Duration) time.Duration {
	d := time.Duration(r.Exp(float64(mean)))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// quantiles reduces samples (milliseconds) to the reported distribution,
// using the ceil-rank convention: Pq is the smallest sample with at least
// q of the mass at or below it.
func quantiles(xs []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pick := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return Quantiles{P50: pick(0.50), P95: pick(0.95), P99: pick(0.99), Max: s[len(s)-1]}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
