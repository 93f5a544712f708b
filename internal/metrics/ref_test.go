package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"adavp/internal/core"
	"adavp/internal/geom"
)

// matchRef is Match as it was written before it scored frames from stack
// arrays: two slices per call and a reflective stable sort. It is the oracle
// the allocation-free Match must agree with on every input.
func matchRef(dets []core.Detection, truth []core.Object, iouThresh float64) MatchResult {
	if iouThresh <= 0 {
		iouThresh = DefaultIoU
	}
	order := make([]int, len(dets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return dets[order[a]].Score > dets[order[b]].Score })

	used := make([]bool, len(truth))
	var res MatchResult
	for _, di := range order {
		d := dets[di]
		best := -1
		bestIoU := iouThresh
		for ti, g := range truth {
			if used[ti] || g.Class != d.Class {
				continue
			}
			if iou := d.Box.IoU(g.Box); iou >= bestIoU {
				bestIoU = iou
				best = ti
			}
		}
		if best >= 0 {
			used[best] = true
			res.TP++
		} else {
			res.FP++
		}
	}
	res.FN = len(truth) - res.TP
	return res
}

// hostileCase is a matching problem built to separate two greedy matchers
// that differ only in visiting order: few distinct scores (so ties are
// common), non-finite and signed-zero scores, boxes on a tight grid (so
// several detections compete for one truth object), sizes on both sides of
// the stack-array limit, and thresholds that include the ≤ 0 default.
type hostileCase struct {
	Dets   []core.Detection
	Truth  []core.Object
	Thresh float64
}

// hostileScores are the score values a generated detection draws from.
var hostileScores = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	0.25, 0.5, 0.5, 0.75, 1,
}

// hostileSizes are the detection and truth counts drawn, around matchInline.
var hostileSizes = []int{0, 1, 2, 7, 63, 64, 65, 150}

// Generate implements quick.Generator.
func (hostileCase) Generate(rng *rand.Rand, _ int) reflect.Value {
	box := func() geom.Rect {
		return geom.Rect{
			Left: float64(rng.Intn(8)), Top: float64(rng.Intn(8)),
			W: float64(1 + rng.Intn(6)), H: float64(1 + rng.Intn(6)),
		}
	}
	hc := hostileCase{Thresh: []float64{-1, 0, 0.1, 0.5, 0.9, 1}[rng.Intn(6)]}
	for i, n := 0, hostileSizes[rng.Intn(len(hostileSizes))]; i < n; i++ {
		score := rng.Float64()
		if rng.Intn(4) > 0 {
			score = hostileScores[rng.Intn(len(hostileScores))]
		}
		hc.Dets = append(hc.Dets, core.Detection{Class: core.Class(rng.Intn(3)), Box: box(), Score: score})
	}
	for i, n := 0, hostileSizes[rng.Intn(len(hostileSizes))]; i < n; i++ {
		hc.Truth = append(hc.Truth, core.Object{ID: i, Class: core.Class(rng.Intn(3)), Box: box()})
	}
	return reflect.ValueOf(hc)
}

// TestMatchEqualsRef: Match returns exactly what matchRef returns, on
// generated hostile frames and on the quick_test.go frames.
func TestMatchEqualsRef(t *testing.T) {
	hostile := func(hc hostileCase) bool {
		return Match(hc.Dets, hc.Truth, hc.Thresh) == matchRef(hc.Dets, hc.Truth, hc.Thresh)
	}
	if err := quick.Check(hostile, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	small := func(fc frameCase) bool {
		return Match(fc.Dets, fc.Truth, fc.Thresh1) == matchRef(fc.Dets, fc.Truth, fc.Thresh1)
	}
	if err := quick.Check(small, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestMatchAllocatesNothing is Match's allocation ledger: a frame with
// matchInline detections and matchInline truth objects is scored from the
// stack.
func TestMatchAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dets := make([]core.Detection, matchInline)
	truth := make([]core.Object, matchInline)
	for i := range dets {
		dets[i] = core.Detection{Class: core.Class(i % 3), Box: randBox(rng), Score: float64(i%7) / 7}
		truth[i] = core.Object{ID: i, Class: core.Class(i % 3), Box: randBox(rng)}
	}
	var sink MatchResult
	if n := testing.AllocsPerRun(100, func() { sink = Match(dets, truth, 0.5) }); n != 0 {
		t.Errorf("Match at %d×%d allocates %v times per call, want 0", len(dets), len(truth), n)
	}
	if sink.TP+sink.FP != len(dets) {
		t.Errorf("Match = %+v over %d detections", sink, len(dets))
	}
}
