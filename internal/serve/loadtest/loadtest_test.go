package loadtest

import (
	"reflect"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/serve"
)

// contended is a scenario with heavy slot contention: far more streams than
// slots, arrival churn, two flash crowds and mild setting skew.
func contended(batch serve.BatchConfig) Config {
	return Config{
		Name:        "contended",
		Streams:     200,
		Slots:       4,
		Batch:       batch,
		Horizon:     30 * time.Second,
		Settings:    []core.Setting{core.Setting512, core.Setting416, core.Setting320},
		SettingSkew: 0.15,
		ChurnRate:   2,
		FlashCrowds: 2,
		Seed:        7,
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(contended(serve.BatchConfig{Size: 4}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(contended(serve.BatchConfig{Size: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-config runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// The SLO story the harness exists to pin: under contention, batching (B>1)
// must beat the unbatched executor on p95 slot-wait — a batched grant
// retires several compatible requests per BatchLatency span instead of one
// per full span.
func TestBatchingBeatsUnbatchedUnderContention(t *testing.T) {
	solo, err := Run(contended(serve.BatchConfig{Size: 1}))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Run(contended(serve.BatchConfig{Size: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if batched.MaxBatch < 2 {
		t.Fatalf("batching never engaged: max batch %d", batched.MaxBatch)
	}
	if batched.Wait.P95 >= solo.Wait.P95 {
		t.Fatalf("batched p95 slot-wait %.1fms did not beat unbatched %.1fms",
			batched.Wait.P95, solo.Wait.P95)
	}
	if batched.SLOAttainment <= solo.SLOAttainment {
		t.Fatalf("batched SLO attainment %.3f did not beat unbatched %.3f",
			batched.SLOAttainment, solo.SLOAttainment)
	}
}

// The fairness story: with the default queue bound nothing defers, so the
// generalized bound is enforceable — and must hold even through churn, flash
// crowds, skew and lingering.
func TestFairnessBoundHeldUnderChurn(t *testing.T) {
	cfg := contended(serve.BatchConfig{Size: 4, Linger: 10 * time.Millisecond})
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deferred != 0 || !rep.BoundEnforceable {
		t.Fatalf("default queue bound deferred %d requests; bound not enforceable", rep.Deferred)
	}
	if !rep.BoundHeld {
		t.Fatalf("fairness bound violated: max calib age %.1fms over bound %.1fms",
			rep.MaxCalibAgeMS, rep.FairnessBoundMS)
	}
	if rep.Reconnects == 0 {
		t.Fatal("churn rate 2/min produced no reconnects")
	}
}

// A starved queue defers requests and switches the bound off instead of
// reporting a phantom violation.
func TestTightQueueBoundDefers(t *testing.T) {
	cfg := contended(serve.BatchConfig{Size: 1})
	cfg.QueueBound = 2
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deferred == 0 {
		t.Fatal("queue bound 2 under 200 streams deferred nothing")
	}
	if rep.BoundEnforceable {
		t.Fatal("bound reported enforceable despite deferrals")
	}
	if rep.Requests != rep.Grants+rep.Deferred {
		t.Fatalf("flow imbalance: %d != %d + %d", rep.Requests, rep.Grants, rep.Deferred)
	}
}

// Setting skew fragments batches: the mean fill with a skewed palette must
// drop below the uniform palette's.
func TestSettingSkewFragmentsBatches(t *testing.T) {
	uniform := contended(serve.BatchConfig{Size: 8})
	uniform.Settings = []core.Setting{core.Setting512}
	uniform.SettingSkew = 0
	u, err := Run(uniform)
	if err != nil {
		t.Fatal(err)
	}
	skewed := contended(serve.BatchConfig{Size: 8})
	skewed.SettingSkew = 0.5
	s, err := Run(skewed)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanBatchFill >= u.MeanBatchFill {
		t.Fatalf("skew 0.5 mean fill %.2f not below uniform %.2f", s.MeanBatchFill, u.MeanBatchFill)
	}
}

func TestValidateRejectsCorruptReports(t *testing.T) {
	good, err := Run(contended(serve.BatchConfig{Size: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("fresh report failed validation: %v", err)
	}
	corrupt := []func(r *Report){
		func(r *Report) { r.Name = "" },
		func(r *Report) { r.Slots = 0 },
		func(r *Report) { r.Grants = 0 },
		func(r *Report) { r.Requests++ },
		func(r *Report) { r.MaxBatch = r.BatchSize + 1 },
		func(r *Report) { r.Wait.P95 = r.Wait.P99 + 1 },
		func(r *Report) { r.SLOAttainment = 1.5 },
		func(r *Report) { r.FairnessBoundMS = 0 },
		func(r *Report) { r.BoundEnforceable, r.BoundHeld = true, false },
	}
	for i, mut := range corrupt {
		r := *good
		mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("corruption %d passed validation", i)
		}
	}
}

// Scale check: the harness must handle the BENCH_serve population (1000+
// streams) in test-suite time.
func TestThousandStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := contended(serve.BatchConfig{Size: 8})
	cfg.Name = "thousand"
	cfg.Streams = 1000
	cfg.Slots = 8
	cfg.Horizon = 20 * time.Second
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grants < 100 {
		t.Fatalf("only %d grants over the horizon", rep.Grants)
	}
	if !rep.BoundHeld {
		t.Fatalf("fairness bound violated at scale: age %.1fms over %.1fms",
			rep.MaxCalibAgeMS, rep.FairnessBoundMS)
	}
}

// A lightly loaded lingering pool is the scenario in which a slot idles
// forward, admits a burst of simultaneous re-requests and leaves the
// incompatible ones queued for a slot that was freed earlier: granted from
// that slot's own clock, 4 of this scenario's 568 waits would be negative, by
// up to 14.3 ms. No sample that reaches the quantiles may be — a request is
// never granted before it is issued.
func TestLightLoadLingerNeverGrantsBeforeRequest(t *testing.T) {
	cfg := Config{
		Streams:     12,
		Slots:       4,
		Batch:       serve.BatchConfig{Size: 4, Linger: 10 * time.Millisecond},
		Horizon:     30 * time.Second,
		Settings:    []core.Setting{core.Setting512, core.Setting320},
		SettingSkew: 0.4,
	}.withDefaults()
	g, start := newGenerator(cfg)
	sched := serve.RunVirtual(start, g, serve.VirtualConfig{Slots: cfg.Slots, QueueBound: cfg.QueueBound, Batch: cfg.Batch})
	if sched.Granted < 500 || len(g.waits) != sched.Granted {
		t.Fatalf("%d grants, %d wait samples; the scenario should grant several hundred", sched.Granted, len(g.waits))
	}
	for i := range g.waits {
		if g.waits[i] < 0 || g.e2es[i] < g.execs[i] {
			t.Fatalf("sample %d: wait %.3fms, exec %.3fms, e2e %.3fms: granted before it was requested",
				i, g.waits[i], g.execs[i], g.e2es[i])
		}
	}
}
