package loadtest

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/rng"
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

// quantilesRef is quantiles as it was before selection: sort a copy, then
// read the ceil-rank samples off it.
func quantilesRef(xs []float64) Quantiles {
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

// sameQuantiles compares two distributions bit for bit.
func sameQuantiles(a, b Quantiles) bool {
	return math.Float64bits(a.P50) == math.Float64bits(b.P50) &&
		math.Float64bits(a.P95) == math.Float64bits(b.P95) &&
		math.Float64bits(a.P99) == math.Float64bits(b.P99) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// TestQuantilesMatchSort holds the selection-based quantiles to the sort
// they replaced, bit for bit: on random lengths up to 5000, on sorted,
// reversed, all-equal and two-valued inputs, and on the lengths where a
// ceil rank steps. The input is left as it was.
func TestQuantilesMatchSort(t *testing.T) {
	r := rng.New(35).DeriveString("quantiles")
	check := func(name string, xs []float64) {
		t.Helper()
		orig := append([]float64(nil), xs...)
		got, want := quantiles(xs), quantilesRef(xs)
		if !sameQuantiles(got, want) {
			t.Fatalf("%s (n=%d): %+v, sort gives %+v", name, len(xs), got, want)
		}
		if !reflect.DeepEqual(xs, orig) {
			t.Fatalf("%s (n=%d): quantiles reordered its input", name, len(xs))
		}
	}
	shapes := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"random", func(i, n int) float64 { return r.Range(0, 1000) }},
		{"few distinct", func(i, n int) float64 { return float64(r.Intn(7)) * 33.5 }},
		{"sorted", func(i, n int) float64 { return float64(i) * 0.25 }},
		{"reversed", func(i, n int) float64 { return float64(n-i) * 0.25 }},
		{"all equal", func(i, n int) float64 { return 42.125 }},
		{"two-valued", func(i, n int) float64 { return float64(1 + r.Intn(2)) }},
		{"organ pipe", func(i, n int) float64 { return float64(min(i, n-i)) }},
	}
	lengths := []int{1, 2, 3, 20, 21, 99, 100, 101, 199, 200, 201, 1000}
	for k := 0; k < 200; k++ {
		lengths = append(lengths, 1+r.Intn(5000))
	}
	for _, n := range lengths {
		for _, sh := range shapes {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = sh.gen(i, n)
			}
			check(sh.name, xs)
		}
	}
	check("empty", nil)
}

// TestQuantilesEqualSamplesLinear: Hoare partitioning splits a run of equal
// samples down the middle, so 50k of them cost a few linear passes, not the
// quadratic blow-up a one-sided partition gives.
func TestQuantilesEqualSamplesLinear(t *testing.T) {
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = 7
	}
	start := time.Now()
	q := quantiles(xs)
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("50k equal samples took %v", took)
	}
	if q != (Quantiles{P50: 7, P95: 7, P99: 7, Max: 7}) {
		t.Fatalf("equal samples gave %+v", q)
	}
}

// BenchmarkRunScaling runs the canonical unbatched scenario at three stream
// counts over one horizon and reports the cost per grant. The slots are
// saturated at every count, so a scheduler whose admission does not scan
// every stream keeps ns/grant close to flat as N grows.
func BenchmarkRunScaling(b *testing.B) {
	for _, n := range []int{64, 1000, 4000} {
		cfg := BenchConfigs()[0]
		cfg.Streams = n
		b.Run(fmt.Sprintf("streams=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			grants := 0
			for i := 0; i < b.N; i++ {
				rep, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				grants += rep.Grants
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(grants), "ns/grant")
		})
	}
}
