package main

import (
	"fmt"
	"time"

	"adavp/internal/core"
	"adavp/internal/video"
)

// scale fixes the size of every workload. Full is what BENCHMARK.json
// measures; smoke is the toy size the tests run all five workloads at.
type scale struct {
	name string
	// Pixel video: segments × len(pixelKinds) spliced segments of segFrames
	// frames at w×h, each from its own sub-seed.
	w, h      int
	segments  int
	segFrames int
	// live_single's camera video: liveParts separately seeded parts at
	// liveW×liveH.
	liveW, liveH int
	liveParts    int
	// warmFrames is the prefix of the pixel video the warm-up pass runs.
	warmFrames int
	// minPasses is the fewest timed passes a pixel run reports on.
	minPasses int
	// liveScale is the rt time scale of the live workloads: emulated
	// latencies and the camera interval are multiplied by it.
	liveScale float64
	// warmLive is how long the live workloads' warm-up run lasts.
	warmLive time.Duration
	// streams, slots, batch are the serve_multi topology.
	streams, slots, batch int
	// simFrames is the length of each test-set video of sim_sweep;
	// multiStreams × multiSlots × multiBatch is its sim.RunMulti topology.
	simFrames                            int
	multiStreams, multiSlots, multiBatch int
	// loadtestHorizon overrides the canonical scenarios' horizon when
	// non-zero (smoke only).
	loadtestHorizon time.Duration
	loadtestStreams int
	// setupRepeats is how many times set-up is run; setup_s is the median.
	setupRepeats int
	// kernelIters is the repeat count of each isolated kernel timing, and
	// poolGrants the fixed grant count of the direct pool drive.
	kernelIters int
	poolGrants  int
}

// full reports whether this is the measuring scale. The accuracy floors and
// the reconciliation tolerance are statements about it; toy frames are too
// small for the detector and too short to reconcile.
func (sc scale) full() bool { return sc.name == fullScale.name }

var fullScale = scale{
	name: "full",
	w:    704, h: 396,
	segments:  3,
	segFrames: 8,
	liveW:     352, liveH: 198,
	liveParts:  12,
	warmFrames: 16,
	minPasses:  5,
	liveScale:  0.25,
	warmLive:   400 * time.Millisecond,
	streams:    16, slots: 2, batch: 2,
	simFrames:    2700,
	multiStreams: 64, multiSlots: 4, multiBatch: 4,
	setupRepeats: 5,
	kernelIters:  6,
	poolGrants:   400,
}

var smokeScale = scale{
	name: "smoke",
	w:    176, h: 99,
	segments:  1,
	segFrames: 8,
	liveW:     176, liveH: 99,
	liveParts:  2,
	warmFrames: 8,
	minPasses:  2,
	liveScale:  0.02,
	warmLive:   20 * time.Millisecond,
	streams:    4, slots: 2, batch: 2,
	simFrames:    90,
	multiStreams: 6, multiSlots: 2, multiBatch: 2,
	loadtestHorizon: 5 * time.Second,
	loadtestStreams: 40,
	setupRepeats:    2,
	kernelIters:     2,
	poolGrants:      40,
}

// Seeds: every input derives from the -seed argument. subSeed spreads one
// seed into independent lanes, one per purpose; a lane's index picks one of
// its many draws (a segment, a stream, a round).
func subSeed(seed uint64, lane seedLane, index int) uint64 {
	return seed*0x9e3779b97f4a7c15 ^ (uint64(lane)<<32+uint64(index)+1)*0xbf58476d1ce4e5b9
}

type seedLane uint64

const (
	lanePixelSegment seedLane = iota // pixel video segments
	lanePixelRun                     // the staged loop's latency jitter
	laneLivePart                     // live_single camera parts
	laneServeVideo                   // serve_multi stream videos
	laneStream                       // per-stream pipeline seeds
	laneSimSet                       // sim_sweep's test set
	laneSimRound                     // sim.RunSet seeds, by round
	laneMultiRound                   // sim.RunMulti seeds, by round
	laneLoadtest                     // loadtest scenario seeds
)

// pixelKinds are the scenes of the pixel video: fast few-object traffic,
// slower mixed traffic, and a near-static room, so object count and change
// rate vary within one pass.
var pixelKinds = []video.Kind{video.KindHighway, video.KindCityStreet, video.KindMeetingRoom}

// pixelVideo builds the spliced video of the pixel workloads: the kinds in
// rotation, every segment a scene of its own. How many objects a scene holds
// and how textured they are decides what tracking it costs, so a pass over
// few scenes would measure the draw; many short ones average it out, and a
// seed changes what is on screen without changing how much.
func pixelVideo(seed uint64, sc scale) *video.Video {
	parts := make([]*video.Video, 0, sc.segments*len(pixelKinds))
	for i := 0; i < cap(parts); i++ {
		k := pixelKinds[i%len(pixelKinds)]
		p := video.ScenarioParams(k)
		p.W, p.H = sc.w, sc.h
		parts = append(parts, video.Generate(fmt.Sprintf("bench-%s-%d", k, i), p, subSeed(seed, lanePixelSegment, i), sc.segFrames))
	}
	return video.Splice("bench-pixel", parts...)
}

// pixelWarmVideo is a short scene of the first kind, for the warm-up pass.
func pixelWarmVideo(seed uint64, sc scale) *video.Video {
	p := video.ScenarioParams(pixelKinds[0])
	p.W, p.H = sc.w, sc.h
	return video.Generate("bench-warm", p, subSeed(seed, lanePixelSegment, -1), sc.warmFrames)
}

// liveFrames is the number of camera frames that fill the given wall time at
// the live time scale.
func liveFrames(seconds float64, sc scale) int {
	interval := float64(time.Second) / float64(video.DefaultFPS) * sc.liveScale
	n := int(seconds * float64(time.Second) / interval)
	if n < 8 {
		n = 8
	}
	return n
}

// liveSingleVideo is live_single's camera: highway traffic at the pixel size,
// spliced from separately seeded parts for the reason pixelVideo gives.
func liveSingleVideo(seed uint64, frames int, sc scale) *video.Video {
	p := video.ScenarioParams(video.KindHighway)
	p.W, p.H = sc.liveW, sc.liveH
	parts := make([]*video.Video, sc.liveParts)
	for i := range parts {
		n := frames / sc.liveParts
		if i == 0 {
			n += frames % sc.liveParts
		}
		parts[i] = video.Generate(fmt.Sprintf("bench-live-%d", i), p, subSeed(seed, laneLivePart, i), n)
	}
	return video.Splice("bench-live", parts...)
}

// serveKinds are the scenario kinds of serve_multi's streams, round-robin:
// the spread of change rates makes the streams' adaptive settings differ, so
// batches fragment as they would in service.
var serveKinds = []video.Kind{video.KindHighway, video.KindIntersection, video.KindMeetingRoom, video.KindRacetrack}

// serveVideos builds serve_multi's model-mode streams (no rasters).
func serveVideos(seed uint64, frames int, sc scale) []*video.Video {
	out := make([]*video.Video, sc.streams)
	for i := range out {
		k := serveKinds[i%len(serveKinds)]
		out[i] = video.GenerateKind(fmt.Sprintf("bench-serve-%02d-%s", i, k), k, subSeed(seed, laneServeVideo, i), frames)
	}
	return out
}

// streamSeed is stream i's pipeline seed (detector noise, latency jitter).
func streamSeed(seed uint64, i int) uint64 { return subSeed(seed, laneStream, i) }

// startSetting is where adaptive runs begin.
const startSetting = core.Setting512
