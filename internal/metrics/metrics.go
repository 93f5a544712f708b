// Package metrics implements the evaluation measures of the paper's §III-A
// and §VI-A: IoU-based matching of detections against ground truth,
// per-frame F1 score, and the per-video accuracy metric (fraction of frames
// whose F1 exceeds a threshold α), plus the CDF/histogram helpers used by
// the evaluation figures.
package metrics

import (
	"math"
	"slices"
	"sort"

	"adavp/internal/core"
)

// DefaultIoU is the IoU threshold for a true positive (paper: 0.5;
// Fig. 11 additionally evaluates 0.6).
const DefaultIoU = 0.5

// DefaultAlpha is the per-frame F1 threshold defining an "accurate" frame
// (paper: 0.7; Fig. 10 additionally evaluates 0.75).
const DefaultAlpha = 0.7

// MatchResult counts the outcome of matching one frame's detections against
// its ground truth.
type MatchResult struct {
	TP, FP, FN int
}

// matchInline is the frame size Match scores without allocating: up to this
// many detections and this many ground-truth objects fit its stack arrays.
// Larger frames (occlusion storms) fall back to the heap.
const matchInline = 64

// Match greedily matches detections to ground-truth objects. A detection is
// a true positive when it has the same label as an unmatched ground-truth
// object and their boxes overlap with IoU >= iouThresh (Eq. 2). Detections
// are considered in decreasing score order and each claims the unmatched
// ground-truth box of the same class with the highest IoU, mirroring the
// standard VOC/COCO greedy protocol.
func Match(dets []core.Detection, truth []core.Object, iouThresh float64) MatchResult {
	if iouThresh <= 0 {
		iouThresh = DefaultIoU
	}
	var orderBuf [matchInline]int
	order := orderBuf[:0]
	if len(dets) > matchInline {
		order = make([]int, 0, len(dets))
	}
	for i := range dets {
		order = append(order, i)
	}
	// Higher score first, decided by Score > and nothing else (not
	// cmp.Compare, which orders NaN): SortStableFunc runs sort.SliceStable's
	// insertion-sort-plus-symMerge, so ties and NaN scores land where they
	// always did.
	slices.SortStableFunc(order, func(a, b int) int {
		if dets[a].Score > dets[b].Score {
			return -1
		}
		return 0
	})

	var usedBuf [matchInline]bool
	used := usedBuf[:]
	if len(truth) > matchInline {
		used = make([]bool, len(truth))
	}
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

// Precision returns TP / (TP + FP), or 0 when nothing was detected.
func (m MatchResult) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall returns TP / (TP + FN), or 0 when there is no ground truth.
func (m MatchResult) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall:
//
//	F1 = 2·P·R / (P + R)
//
// (the paper's Eq. 1 misprints this as 2(1/P + 1/R); the harmonic mean is
// what its results use). Convention for degenerate frames: when the frame
// has no ground-truth objects and the scheme detects nothing, the frame is
// scored 1 (nothing to find, nothing falsely reported); if exactly one side
// is empty, the score is 0.
func (m MatchResult) F1() float64 {
	if m.TP+m.FP == 0 && m.TP+m.FN == 0 {
		return 1
	}
	p := m.Precision()
	r := m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// FrameF1 is shorthand for Match(...).F1().
func FrameF1(dets []core.Detection, truth []core.Object, iouThresh float64) float64 {
	return Match(dets, truth, iouThresh).F1()
}

// VideoAccuracy returns the fraction of frames whose F1 score is at least
// alpha — the paper's per-video accuracy metric ("if the accuracy of a video
// is 0.6, 60% of frames have F1 higher than 0.7").
func VideoAccuracy(frameF1 []float64, alpha float64) float64 {
	if len(frameF1) == 0 {
		return 0
	}
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	count := 0
	for _, f := range frameF1 {
		if f >= alpha {
			count++
		}
	}
	return float64(count) / float64(len(frameF1))
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the samples.
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// P returns the empirical probability that a sample is <= x.
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}
