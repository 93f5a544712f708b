package main

import (
	"fmt"
	"math"
	"os"
)

// A/A mode runs every workload twice in one process, the second time in
// reverse order, and holds the two sets of end-to-end metrics against the
// bounds: two runs of the same code must agree within what the benchmark
// calls a regression, or the bounds are tighter than the noise.

// aaRow compares one metric across the two runs.
type aaRow struct {
	First  float64 `json:"first"`
	Second float64 `json:"second"`
	// Diff is |second − first| as a share of first.
	Diff   float64 `json:"diff_share"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within_bound"`
}

func compareAA(first, second map[string]metricValue) (map[string]aaRow, bool) {
	rows := make(map[string]aaRow, len(endToEnd))
	ok := true
	for _, def := range endToEnd {
		a, b := first[def.Name].Value, second[def.Name].Value
		row := aaRow{First: a, Second: b, Diff: ratio(math.Abs(b-a), math.Abs(a)), Bound: def.Bound}
		row.Within = row.Diff <= def.Bound
		ok = ok && row.Within
		rows[def.Name] = row
	}
	return rows, ok
}

func runAA(names []string, env environment, sc scale) bool {
	order := append([]string(nil), names...)
	runs := make([]map[string]*outcome, 2)
	ok := true
	for pass := range runs {
		runs[pass] = make(map[string]*outcome, len(order))
		for _, n := range order {
			out, err := runWorkload(n, env.Seed, env.Seconds, false, sc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
				return false
			}
			out.print(env, true)
			ok = ok && out.correct()
			runs[pass][n] = out
		}
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	for _, n := range names {
		rows, within := compareAA(runs[0][n].metrics.values, runs[1][n].metrics.values)
		writeLine(map[string]any{"workload": n, "aa": rows, "within_bounds": within})
		ok = ok && within
	}
	return ok
}
