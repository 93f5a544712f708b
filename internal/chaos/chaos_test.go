package chaos

import (
	"context"
	"os"
	"testing"
	"time"

	"adavp/internal/fault"
	"adavp/internal/serve"
	"adavp/internal/video"
)

// testFault is the default soak fault profile: the full taxonomy at a rate
// high enough to exercise every guard path in a short run.
func testFault() *fault.Profile {
	return &fault.Profile{Rate: 0.08, Burst: 2, Seed: 9}
}

// TestSoakSimParity: the headline determinism invariant — two same-seed sim
// soaks (scenario churn, identity churn, fault injection and all) produce
// byte-identical telemetry snapshots, hold the fairness bound and clear
// every per-scenario F1 floor.
func TestSoakSimParity(t *testing.T) {
	rep, err := SoakSimParity(Config{
		Streams:       8,
		Slots:         2,
		Rounds:        2,
		SegmentFrames: 40,
		Fault:         testFault(),
		Seed:          1,
	})
	if err != nil {
		t.Fatalf("SoakSimParity: %v", err)
	}
	if testing.Verbose() {
		rep.Print(os.Stderr)
	}
	if !rep.OK() {
		t.Fatalf("sim soak violated invariants:\n%v", rep.Violations)
	}
	if rep.Frames == 0 || rep.Grants == 0 {
		t.Fatalf("soak did no work: %+v", rep)
	}
	if rep.SnapshotSHA == "" {
		t.Error("no snapshot digest")
	}
}

// TestSoakSimLongHorizon: the long-virtual-horizon soak (full default
// rounds) stays clean and covers every scenario kind — benign and hostile —
// with evaluated frames.
func TestSoakSimLongHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon soak skipped in -short mode")
	}
	rep, err := SoakSim(Config{Fault: testFault(), Seed: 3})
	if err != nil {
		t.Fatalf("SoakSim: %v", err)
	}
	if testing.Verbose() {
		rep.Print(os.Stderr)
	}
	if !rep.OK() {
		t.Fatalf("long-horizon soak violated invariants:\n%v", rep.Violations)
	}
	covered := make(map[video.Kind]bool, len(rep.Scenarios))
	for _, s := range rep.Scenarios {
		if s.Frames > 0 {
			covered[s.Kind] = true
		}
	}
	for _, k := range video.EveryKind() {
		if !covered[k] {
			t.Errorf("scenario kind %s never appeared in the soak", k)
		}
	}
	if rep.Churned == 0 {
		t.Error("no identity churn over the default horizon")
	}
}

// TestSoakSimChurnVariesStreams: churn actually changes the stream
// population round over round (identities retire, new ones arrive).
func TestSoakSimChurnVariesStreams(t *testing.T) {
	cfg := Config{Streams: 6, Slots: 2, Rounds: 3, SegmentFrames: 20, ChurnRate: 0.5, Seed: 7}.withDefaults()
	root := rngRoot(cfg.Seed)
	st := newChurnState(cfg.Streams)
	ids := make(map[string]bool)
	for round := 0; round < cfg.Rounds; round++ {
		for _, p := range planRound(root, cfg, round, cfg.SegmentFrames, st) {
			ids[p.ID] = true
		}
	}
	if len(ids) <= cfg.Streams {
		t.Errorf("%d distinct stream identities over %d rounds at churn 0.5, want > %d", len(ids), cfg.Rounds, cfg.Streams)
	}
	if st.churned == 0 {
		t.Error("churn counter stayed zero")
	}
}

// TestSoakRTBounded: a short wall-clock live soak under the shared pool,
// fault profile on: zero goroutine growth, bounded heap delta, fairness
// held, escalation budget recovered. This is the test `make race` runs with
// the race detector.
func TestSoakRTBounded(t *testing.T) {
	rep, err := SoakRT(context.Background(), Config{
		Streams:       8,
		Slots:         2,
		SegmentFrames: 25,
		WallBudget:    3 * time.Second,
		Fault:         testFault(),
		Seed:          5,
	})
	if err != nil {
		t.Fatalf("SoakRT: %v", err)
	}
	if testing.Verbose() {
		rep.Print(os.Stderr)
	}
	if !rep.OK() {
		t.Fatalf("rt soak violated invariants:\n%v", rep.Violations)
	}
	if rep.Rounds == 0 || rep.Frames == 0 {
		t.Fatalf("rt soak did no work: %+v", rep)
	}
	if rep.BudgetRecovered != rep.BudgetCapacity {
		t.Errorf("budget recovered %d of %d", rep.BudgetRecovered, rep.BudgetCapacity)
	}
}

// TestSoakRTCancel: cancelling the context stops the soak promptly without
// reporting stream errors as invariant violations.
func TestSoakRTCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
		close(done)
	}()
	rep, err := SoakRT(ctx, Config{
		Streams:       4,
		Slots:         2,
		SegmentFrames: 200, // long enough that cancellation lands mid-round
		WallBudget:    time.Minute,
		Seed:          11,
	})
	<-done
	if err != nil {
		t.Fatalf("SoakRT: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("cancelled soak reported violation: %s", v)
	}
}

// TestSoakRTPipelined: the pipelined preset — pixel streams with staged
// frame prefetch contending for one shared slot. While a stream blocks in
// Pool.Acquire its tracker keeps stepping the previous cycle through the
// prefetching ring (the soak must bank prefetched frames to prove it, and
// SoakRT runs until one round has given every stream the three detections
// that takes, lengthening its segments on a loaded machine instead of
// stopping at the wall budget), and because prefetch never touches
// the pool the fairness bound must hold exactly as it does sequentially —
// along with the usual rt survival invariants (zero goroutine growth,
// bounded heap).
func TestSoakRTPipelined(t *testing.T) {
	rep, err := SoakRT(context.Background(), Config{
		Streams:       4,
		Slots:         1,
		WallBudget:    2 * time.Second,
		PipelineDepth: 3,
		Seed:          5,
	})
	if err != nil {
		t.Fatalf("SoakRT(pipelined): %v", err)
	}
	if testing.Verbose() {
		rep.Print(os.Stderr)
	}
	if !rep.OK() {
		t.Fatalf("pipelined rt soak violated invariants:\n%v", rep.Violations)
	}
	if rep.Rounds == 0 || rep.Frames == 0 {
		t.Fatalf("pipelined soak did no work: %+v", rep)
	}
	if rep.Prefetched == 0 {
		t.Error("four pixel streams over one slot banked no prefetched frames while waiting")
	}
}

// TestSoakSimBatchedPreset: the batched-pool preset — B>1 under scenario
// churn, identity churn and fault injection — keeps every machine-checked
// invariant: same-seed byte parity, the generalized fairness bound under
// batching, and the per-scenario F1 floors. Batching must actually engage
// (some grant fuses more than one request) for the preset to prove anything.
func TestSoakSimBatchedPreset(t *testing.T) {
	rep, err := SoakSimParity(Config{
		Streams:       8,
		Slots:         2,
		Batch:         serve.BatchConfig{Size: 3},
		Rounds:        2,
		SegmentFrames: 40,
		Fault:         testFault(),
		Seed:          1,
	})
	if err != nil {
		t.Fatalf("SoakSimParity(batched): %v", err)
	}
	if testing.Verbose() {
		rep.Print(os.Stderr)
	}
	if !rep.OK() {
		t.Fatalf("batched sim soak violated invariants:\n%v", rep.Violations)
	}
	if rep.BatchSize != 3 {
		t.Fatalf("report batch size %d, want 3", rep.BatchSize)
	}
	if rep.MaxBatch < 2 {
		t.Fatalf("MaxBatch = %d: batching never engaged under churn", rep.MaxBatch)
	}
	if rep.Batches == 0 || rep.Batches >= rep.Grants {
		t.Fatalf("batches %d vs grants %d: fusing should shrink the grant count", rep.Batches, rep.Grants)
	}
}

// TestSoakRTBatchedPreset: the live batched pool under churn and faults
// keeps the rt survival invariants — zero goroutine growth, bounded heap,
// the batched fairness bound, budget refill — while actually fusing grants.
func TestSoakRTBatchedPreset(t *testing.T) {
	rep, err := SoakRT(context.Background(), Config{
		Streams:       8,
		Slots:         2,
		Batch:         serve.BatchConfig{Size: 3},
		SegmentFrames: 25,
		WallBudget:    3 * time.Second,
		Fault:         testFault(),
		Seed:          5,
	})
	if err != nil {
		t.Fatalf("SoakRT(batched): %v", err)
	}
	if testing.Verbose() {
		rep.Print(os.Stderr)
	}
	if !rep.OK() {
		t.Fatalf("batched rt soak violated invariants:\n%v", rep.Violations)
	}
	if rep.MaxBatch < 2 {
		t.Fatalf("MaxBatch = %d: live batching never engaged", rep.MaxBatch)
	}
	if rep.GoroutinesAfter > rep.GoroutinesBefore {
		t.Errorf("goroutines grew %d -> %d under batching", rep.GoroutinesBefore, rep.GoroutinesAfter)
	}
	if rep.BudgetRecovered != rep.BudgetCapacity {
		t.Errorf("budget recovered %d of %d", rep.BudgetRecovered, rep.BudgetCapacity)
	}
}
