// Package adapt implements AdaVP's DNN model-setting adaptation (§IV-D).
//
// The video-content changing rate is measured for free from the tracker's
// intermediate results (the mean motion velocity of its features, Eq. 3).
// The adaptation module maps that velocity to the YOLOv3 input size to use
// for the next detection cycle: slow content → large, accurate, slow model;
// fast content → small, fast model that recalibrates the tracker often.
//
// The mapping is three velocity thresholds v1 < v2 < v3:
//
//	v ≤ v1        → 608×608
//	v1 < v ≤ v2   → 512×512
//	v2 < v ≤ v3   → 416×416
//	v3 < v        → 320×320
//
// Because the velocity measured under different settings differs slightly
// (bounding boxes, and hence extracted features, differ per setting), the
// paper trains a separate threshold triple for each *current* setting; the
// runtime module selects the triple matching the setting the velocity was
// measured under.
package adapt

import (
	"fmt"
	"math"
	"sort"
	"time"

	"adavp/internal/core"
	"adavp/internal/obs"
)

// Thresholds is one (v1, v2, v3) triple, ascending.
type Thresholds [3]float64

// Decide maps a velocity to a setting using this triple.
func (t Thresholds) Decide(velocity float64) core.Setting {
	switch {
	case velocity <= t[0]:
		return core.Setting608
	case velocity <= t[1]:
		return core.Setting512
	case velocity <= t[2]:
		return core.Setting416
	default:
		return core.Setting320
	}
}

// Model holds one threshold triple per current setting.
type Model struct {
	PerSetting map[core.Setting]Thresholds
}

// DefaultModel returns the pretrained adaptation model shipped with the
// library. The constants come from an early run of the training pipeline in
// cmd/adavp-train over the standard synthetic training set (32 videos; the
// paper's §IV-D.3 uses 105,205 frames). They are stale: today
//
//	go run ./cmd/adavp-train
//
// fits 320 {0.60, 2.64, 5.90}, 416 {0.50, 3.25, 9.48}, 512 {0.63, 3.51,
// 11.27} and 608 {0.54, 2.58, 13.97}. They are kept until the thresholds
// are retrained on purpose, because replacing them moves every AdaVP run.
// Velocities are in pixels/frame at the native 320×180 resolution.
func DefaultModel() *Model {
	return &Model{PerSetting: map[core.Setting]Thresholds{
		core.Setting320: {0.60, 7.77, 7.96},
		core.Setting416: {0.50, 6.63, 9.48},
		core.Setting512: {0.65, 6.30, 11.25},
		core.Setting608: {0.54, 6.48, 13.97},
	}}
}

// Next returns the setting to use for the next detection cycle, given the
// setting the current cycle ran at and the velocity its tracker measured.
// Unknown current settings fall back to the 512 triple (the mid model). A
// non-finite velocity (a tracker interval with zero live features divides
// 0/0) keeps the current setting: NaN compares false against every
// threshold, which would otherwise silently select the smallest model.
func (m *Model) Next(current core.Setting, velocity float64) core.Setting {
	if math.IsNaN(velocity) || math.IsInf(velocity, 0) {
		return current
	}
	th, ok := m.PerSetting[current]
	if !ok {
		th, ok = m.PerSetting[core.Setting512]
		if !ok {
			return core.Setting512
		}
	}
	return th.Decide(velocity)
}

// Smooth folds one per-cycle velocity v into the running estimate prev, the
// input of Next: a light EWMA, because a single cycle's measurement is noisy
// (few tracked steps) and the thresholds are trained on 1-second chunk
// means. A negative prev (no measurement yet) takes v.
func Smooth(prev, v float64) float64 {
	if prev < 0 {
		return v
	}
	return 0.3*prev + 0.7*v
}

// PublishDecision records one adaptation decision into the observability
// registry under the shared schema: the velocity gauge is updated for every
// decision, and an applied switch (from != to) additionally increments the
// switch counter, observes the decision in the adapt-decision stage
// histogram (took is the switch overhead — virtual in sim, wall in rt) and
// appends a journal event at the caller-supplied pipeline time. A nil
// registry drops everything. Extra labels (stream=<id> in multi-stream runs)
// are applied to the gauge, counter and histogram series.
//
// The gauge is sanitized the same way the trace path guards its serialized
// floats (obs.SafeFloat): a NaN or ±Inf velocity — a tracker interval with
// zero live features yields 0/0 — never reaches the gauge, which keeps its
// last finite value instead of poisoning every scrape that follows.
func PublishDecision(reg *obs.Registry, from, to core.Setting, velocity float64, took, at time.Duration, extra ...obs.Label) {
	if reg == nil {
		return
	}
	if !math.IsNaN(velocity) && !math.IsInf(velocity, 0) {
		reg.Gauge(obs.MetricVelocity, extra...).Set(velocity)
	}
	if from == to {
		return
	}
	labels := append([]obs.Label{obs.L("from", from.String()), obs.L("to", to.String())}, extra...)
	reg.Counter(obs.MetricAdaptSwitches, labels...).Inc()
	reg.StageHistogram(obs.StageAdapt, extra...).ObserveDuration(took)
	reg.Record(at, "adapt", from.String()+"->"+to.String(), "switch")
}

// Sample is one training observation: while running MPDT at a fixed setting,
// one 1-second chunk of video yielded this measured velocity, and comparing
// the per-chunk accuracy of all four fixed settings showed Best to be the
// most accurate choice for this chunk (§IV-D.3).
type Sample struct {
	// Current is the setting the velocity was measured under.
	Current core.Setting
	// Velocity is the mean motion velocity of the chunk (px/frame).
	Velocity float64
	// Best is the setting with the highest accuracy on this chunk.
	Best core.Setting
	// Scores optionally holds the measured accuracy of each candidate
	// setting on this chunk. When present, training maximizes expected
	// accuracy instead of 0/1 label agreement — mistaking two near-tied
	// settings then costs almost nothing, while picking a far-off setting
	// costs the full accuracy gap.
	Scores map[core.Setting]float64
}

// Train fits a Model from samples: for each current setting it finds the
// ascending threshold triple minimizing the number of misclassified chunks.
//
// Since the predictor is "assign contiguous velocity ranges, in descending
// model-size order", the optimum is a 4-way partition of the velocity-sorted
// samples — found exactly by dynamic programming in O(settings · n²).
func Train(samples []Sample) (*Model, error) {
	bySetting := make(map[core.Setting][]Sample)
	for _, s := range samples {
		if !s.Current.Valid() || !s.Best.Valid() {
			return nil, fmt.Errorf("adapt: invalid sample %+v", s)
		}
		bySetting[s.Current] = append(bySetting[s.Current], s)
	}
	if len(bySetting) == 0 {
		return nil, fmt.Errorf("adapt: no training samples")
	}
	// Fit groups in sorted-setting order so the first error reported (and
	// any future fitting that carries state across groups) is independent
	// of map iteration order.
	settings := make([]core.Setting, 0, len(bySetting))
	for s := range bySetting {
		settings = append(settings, s)
	}
	sort.Slice(settings, func(i, j int) bool { return settings[i] < settings[j] })
	m := &Model{PerSetting: make(map[core.Setting]Thresholds, len(bySetting))}
	for _, setting := range settings {
		th, err := fitThresholds(bySetting[setting])
		if err != nil {
			return nil, fmt.Errorf("adapt: fitting %v: %w", setting, err)
		}
		m.PerSetting[setting] = th
	}
	return m, nil
}

// segmentClasses is the label of each velocity segment, slowest first.
var segmentClasses = [4]core.Setting{core.Setting608, core.Setting512, core.Setting416, core.Setting320}

// fitThresholds solves the 4-segment partition for one group.
func fitThresholds(group []Sample) (Thresholds, error) {
	if len(group) == 0 {
		return Thresholds{}, fmt.Errorf("empty group")
	}
	sorted := make([]Sample, len(group))
	copy(sorted, group)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Velocity < sorted[j].Velocity })
	n := len(sorted)

	// cost of assigning one sample to segment class c: the accuracy lost
	// relative to the sample's best setting (soft costs when Scores are
	// available, 0/1 label disagreement otherwise).
	sampleCost := func(s Sample, c int) float64 {
		if len(s.Scores) > 0 {
			best := s.Scores[s.Best]
			return best - s.Scores[segmentClasses[c]]
		}
		if s.Best == segmentClasses[c] {
			return 0
		}
		return 1
	}
	// prefix[c][i] = total cost of labeling the first i samples with class c.
	var prefix [4][]float64
	for c := range prefix {
		prefix[c] = make([]float64, n+1)
		for i, s := range sorted {
			prefix[c][i+1] = prefix[c][i] + sampleCost(s, c)
		}
	}
	segCost := func(c, i, j int) float64 {
		return prefix[c][j] - prefix[c][i]
	}

	// dp[k][i] = min cost of labeling the first i samples with the first
	// k+1 segment classes, with the (k+1)-th segment ending at i.
	const segments = 4
	dp := make([][]float64, segments)
	cut := make([][]int, segments) // cut[k][i] = start index of segment k
	for k := range dp {
		dp[k] = make([]float64, n+1)
		cut[k] = make([]int, n+1)
	}
	for i := 0; i <= n; i++ {
		dp[0][i] = segCost(0, 0, i)
	}
	for k := 1; k < segments; k++ {
		for i := 0; i <= n; i++ {
			best := math.Inf(1)
			bestJ := 0
			for j := 0; j <= i; j++ {
				if c := dp[k-1][j] + segCost(k, j, i); c < best {
					best = c
					bestJ = j
				}
			}
			dp[k][i] = best
			cut[k][i] = bestJ
		}
	}
	// Recover the three cut indices.
	var cuts [3]int
	i := n
	for k := segments - 1; k >= 1; k-- {
		cuts[k-1] = cut[k][i]
		i = cut[k][i]
	}
	// Convert cut indices to velocity thresholds: midway between the last
	// sample of one segment and the first of the next.
	var th Thresholds
	for k, c := range cuts {
		switch {
		case c == 0:
			th[k] = 0
		case c >= n:
			th[k] = sorted[n-1].Velocity
		default:
			th[k] = (sorted[c-1].Velocity + sorted[c].Velocity) / 2
		}
	}
	// Enforce monotonicity against floating-point ties.
	if th[1] < th[0] {
		th[1] = th[0]
	}
	if th[2] < th[1] {
		th[2] = th[1]
	}
	return th, nil
}
