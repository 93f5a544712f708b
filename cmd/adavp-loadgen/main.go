// Command adavp-loadgen drives synthetic detection streams through the
// serving layer's real scheduling primitives (internal/serve/loadtest) and
// reports the latency/SLO story: p50/p95/p99 slot-wait, execution and
// end-to-end distributions, SLO attainment, batch fill, and the generalized
// fairness bound checked against the worst observed calibration age.
//
// Two modes:
//
//	adavp-loadgen -streams 500 -slots 4 -batch-size 8 -churn 2 -flash-crowds 2
//	adavp-loadgen -bench -out BENCH_serve.json
//
// The first runs one ad-hoc scenario from flags. The second runs the
// canonical benchmark matrix (1000 streams, batch sweep, churn + flash
// crowds + setting skew) and writes the committed BENCH_serve.json
// artifact; the run fails unless every batched scenario beats the unbatched
// baseline on p95 slot-wait and SLO attainment. Everything is virtual-clock
// deterministic: same flags, same bytes.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"adavp/internal/core"
	"adavp/internal/serve"
	"adavp/internal/serve/loadtest"
)

// cliOpts collects the parsed command line.
type cliOpts struct {
	bench       bool
	out         string
	streams     int
	slots       int
	queueBound  int
	batch       serve.BatchConfig
	horizon     time.Duration
	churn       float64
	flashCrowds int
	skew        float64
	slo         time.Duration
	seed        uint64
}

// newFlagSet registers every flag on a fresh FlagSet writing into o. The
// -batch-size and -batch-timeout flags are serve.BatchFlags, shared with
// cmd/adavp, and validate at parse time.
func newFlagSet(o *cliOpts, eh flag.ErrorHandling) *flag.FlagSet {
	fs := flag.NewFlagSet("adavp-loadgen", eh)
	fs.BoolVar(&o.bench, "bench", false, "run the canonical BENCH_serve.json scenario matrix instead of one ad-hoc scenario (scenario flags are then ignored)")
	fs.StringVar(&o.out, "out", "", "write the schema-checked JSON suite to this file (empty: print the table only)")
	fs.IntVar(&o.streams, "streams", 200, "synthetic stream population N")
	fs.IntVar(&o.slots, "slots", 4, "shared detector slots K")
	fs.IntVar(&o.queueBound, "queue-bound", 0, "wait-queue capacity (0: N, which never defers)")
	serve.BatchFlags(fs, &o.batch)
	fs.DurationVar(&o.horizon, "horizon", 30*time.Second, "virtual-time length of the run")
	fs.Float64Var(&o.churn, "churn", 2, "disconnect/reconnect cycles per stream per virtual minute (0: no churn)")
	fs.IntVar(&o.flashCrowds, "flash-crowds", 2, "cohorts of streams connecting simultaneously, spread across the horizon")
	fs.Float64Var(&o.skew, "skew", 0.15, "probability a stream draws a non-dominant model setting, fragmenting batches")
	fs.DurationVar(&o.slo, "slo", 10*time.Second, "end-to-end latency target attainment is measured against")
	fs.Uint64Var(&o.seed, "seed", 1, "scenario seed (runs are reproducible)")
	return fs
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adavp-loadgen: ")
	var o cliOpts
	fs := newFlagSet(&o, flag.ExitOnError)
	_ = fs.Parse(os.Args[1:]) // ExitOnError: a parse failure never returns
	if err := run(o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(o cliOpts, w io.Writer) error {
	var (
		suite *loadtest.Suite
		err   error
	)
	if o.bench {
		suite, err = loadtest.RunBench()
	} else {
		if o.streams < 1 {
			return fmt.Errorf("-streams %d: need at least one stream", o.streams)
		}
		if o.slots < 1 {
			return fmt.Errorf("-slots %d: need at least one slot", o.slots)
		}
		suite, err = loadtest.RunSuite([]loadtest.Config{{
			Name:        "adhoc",
			Streams:     o.streams,
			Slots:       o.slots,
			QueueBound:  o.queueBound,
			Batch:       o.batch,
			Horizon:     o.horizon,
			Settings:    []core.Setting{core.Setting512, core.Setting416, core.Setting320},
			SettingSkew: o.skew,
			ChurnRate:   o.churn,
			FlashCrowds: o.flashCrowds,
			SLO:         o.slo,
			Seed:        o.seed,
		}})
	}
	if err != nil {
		return err
	}
	printSuite(w, suite)
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return fmt.Errorf("creating %s: %w", o.out, err)
		}
		werr := suite.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		// Re-read what we wrote: the artifact on disk must round-trip the
		// schema check, not just the in-memory suite.
		rf, err := os.Open(o.out)
		if err != nil {
			return err
		}
		_, rerr := loadtest.ReadSuite(rf)
		if cerr := rf.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return fmt.Errorf("%s failed the schema check after writing: %w", o.out, rerr)
		}
		fmt.Fprintf(w, "wrote %d scenario(s) to %s (schema %s)\n", len(suite.Scenarios), o.out, loadtest.Schema)
	}
	return nil
}

// printSuite renders the human-readable scenario table.
func printSuite(w io.Writer, s *loadtest.Suite) {
	fmt.Fprintf(w, "%-22s %8s %7s %6s %10s %10s %10s %8s %9s %6s\n",
		"scenario", "grants", "defer", "fill", "wait p50", "wait p95", "wait p99", "slo", "calib max", "bound")
	for _, r := range s.Scenarios {
		bound := "held"
		if !r.BoundEnforceable {
			bound = "n/a"
		} else if !r.BoundHeld {
			bound = "OVER"
		}
		fmt.Fprintf(w, "%-22s %8d %7d %6.2f %9.0fms %9.0fms %9.0fms %7.1f%% %8.0fms %6s\n",
			r.Name, r.Grants, r.Deferred, r.MeanBatchFill,
			r.Wait.P50, r.Wait.P95, r.Wait.P99, 100*r.SLOAttainment, r.MaxCalibAgeMS, bound)
	}
	fmt.Fprintf(w, "(N=%d K=%d; deterministic virtual clock; ages checked against serve.FairnessBoundBatched)\n",
		s.Scenarios[0].Streams, s.Scenarios[0].Slots)
}
