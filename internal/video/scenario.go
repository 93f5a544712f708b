// Package video provides the synthetic video substrate for the AdaVP
// reproduction: a deterministic scene model (objects with classes,
// trajectories, spawning and despawning, camera motion), fourteen scenario
// presets matching the paper's dataset description (§IV-D.3, §VI-A), and a
// rasterizer that renders frames with per-object texture so the real
// feature tracker has pixel structure to lock onto.
//
// The paper evaluates on 45 videos from ImageNet-VID, Videezy and YouTube.
// Those videos are not redistributable and carry no machine-readable ground
// truth at the granularity the simulator needs, so this package generates
// equivalent content: what matters to AdaVP is each video's ground-truth
// boxes and its *content changing rate* (how fast boxes move and how often
// new objects appear), both of which the scene model controls directly.
package video

import (
	"fmt"

	"adavp/internal/core"
	"adavp/internal/geom"
)

// Kind enumerates the fourteen scenario categories listed in the paper:
// surveillance cameras (highway, intersection, city street, train station,
// bus station, residential area), car-mounted cameras (highway, downtown),
// and mobile-camera subjects (airplanes, boat, wildlife, racetrack, meeting
// room, skating rink).
type Kind int

// Scenario kinds.
const (
	KindInvalid Kind = iota
	KindHighway
	KindIntersection
	KindCityStreet
	KindTrainStation
	KindBusStation
	KindResidential
	KindCarHighway
	KindCarDowntown
	KindAirplanes
	KindBoat
	KindWildlife
	KindRacetrack
	KindMeetingRoom
	KindSkatingRink
	firstHostile // marker: benign kinds above, hostile kinds below
	// Hostile kinds: long-tail conditions the chaos soak (internal/chaos)
	// drives the pipeline through. They never enter the training or test
	// datasets (AllKinds stays benign), so calibration and the paper's
	// experiments are unchanged.
	KindDayNight       // day/night luminance ramp + exposure flicker
	KindRainstorm      // rain-streak overlay + camera shake
	KindFogBank        // fog contrast loss
	KindOcclusionStorm // dense crowd, 100+ overlapping objects
	KindSceneCut       // hard scene cuts + camera shake
	KindStrobeDrop     // variable/dropped frame rate (repeated frames)
	KindFrozen         // hours-static scene: nothing moves
	KindDeadSensor     // sensor failure: all-black frames, no objects
	numKinds           // sentinel; keep last
)

// NumKinds is the number of benign scenario categories (the paper's 14).
const NumKinds = int(firstHostile) - 1

// NumHostileKinds is the number of hostile long-tail presets.
const NumHostileKinds = int(numKinds) - int(firstHostile) - 1

var kindNames = [...]string{
	KindInvalid:        "invalid",
	KindHighway:        "highway",
	KindIntersection:   "intersection",
	KindCityStreet:     "city-street",
	KindTrainStation:   "train-station",
	KindBusStation:     "bus-station",
	KindResidential:    "residential",
	KindCarHighway:     "car-highway",
	KindCarDowntown:    "car-downtown",
	KindAirplanes:      "airplanes",
	KindBoat:           "boat",
	KindWildlife:       "wildlife",
	KindRacetrack:      "racetrack",
	KindMeetingRoom:    "meeting-room",
	KindSkatingRink:    "skating-rink",
	firstHostile:       "invalid",
	KindDayNight:       "day-night",
	KindRainstorm:      "rainstorm",
	KindFogBank:        "fog-bank",
	KindOcclusionStorm: "occlusion-storm",
	KindSceneCut:       "scene-cut",
	KindStrobeDrop:     "strobe-drop",
	KindFrozen:         "frozen",
	KindDeadSensor:     "dead-sensor",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if !k.Valid() {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Valid reports whether k is a defined scenario kind (benign or hostile).
func (k Kind) Valid() bool {
	return k > KindInvalid && k < numKinds && k != firstHostile
}

// AllKinds returns the fourteen benign scenario kinds in declaration order.
// The training and test datasets are built from these; hostile presets are
// deliberately excluded (see HostileKinds).
func AllKinds() []Kind {
	out := make([]Kind, 0, NumKinds)
	for k := KindInvalid + 1; k < firstHostile; k++ {
		out = append(out, k)
	}
	return out
}

// HostileKinds returns the hostile long-tail presets in declaration order.
func HostileKinds() []Kind {
	out := make([]Kind, 0, NumHostileKinds)
	for k := firstHostile + 1; k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// EveryKind returns all defined kinds, benign then hostile.
func EveryKind() []Kind { return append(AllKinds(), HostileKinds()...) }

// classWeight pairs a class with its relative spawn frequency.
type classWeight struct {
	class  core.Class
	weight float64
}

// Params describes a scenario's dynamics. Speeds and sizes are expressed as
// fractions of the frame width per second (speeds) or of the frame width
// (sizes), so a scenario behaves identically at any rendering resolution.
type Params struct {
	Kind Kind
	// W, H are the frame dimensions in pixels.
	W, H int
	// FPS is the camera frame rate.
	FPS int

	// SpawnPerSec is the expected number of new objects per second.
	SpawnPerSec float64
	// InitialObjects seeds the scene before frame 0.
	InitialObjects int
	// MinObjects keeps the scene populated: when the live count drops below
	// it, a new object is spawned at the view's edge each frame until the
	// floor is restored.
	MinObjects int
	// MaxObjects caps the live object count.
	MaxObjects int

	// SpeedMin/SpeedMax bound object speed (frame widths per second).
	SpeedMin, SpeedMax float64
	// DirBias is the dominant motion direction; zero means isotropic.
	DirBias geom.Point
	// DirJitter in [0,1] blends isotropic randomness into DirBias.
	DirJitter float64
	// WanderStd perturbs object velocity each second (random walk), as a
	// fraction of frame width per second.
	WanderStd float64

	// SizeMin/SizeMax bound object width (fraction of frame width).
	SizeMin, SizeMax float64

	// Classes gives the class mix.
	Classes []classWeight

	// PanAmp and PanPeriodSec describe sinusoidal camera panning (fraction
	// of frame width; seconds). Zero amplitude means a static camera.
	PanAmp, PanPeriodSec float64
	// ScrollSpeed is linear camera translation (car-mounted ego motion), in
	// frame widths per second.
	ScrollSpeed float64
	// Growth is the mean relative size growth per second of objects (ego
	// scenarios: approaching objects loom).
	Growth float64
	// GrowthStd spreads per-object growth rates around Growth. Objects
	// approaching or receding from the camera change apparent size; the
	// tracker shifts boxes but never rescales them (§IV-C step 5), so scale
	// dynamics are a major IoU-decay driver on fast footage.
	GrowthStd float64

	// SpeedCycleAmp and SpeedCyclePeriodSec modulate all object speeds with
	// a sinusoid: v(t) = v · (1 + amp·sin(2πt/period + phase)). This models
	// within-video regime changes (traffic waves, braking and accelerating,
	// a crowd surging) — the reason a single fixed model setting is never
	// optimal for a whole video and runtime adaptation pays off (§IV-D).
	SpeedCycleAmp       float64
	SpeedCyclePeriodSec float64

	// Compositional stressors (hostile presets; zero values disable each).
	// They model the long tail a production detector must survive; every one
	// is a pure function of (seed, frame, pixel), so stressed videos keep the
	// package's byte-determinism at any worker count.

	// LumaRampDepth dims the whole raster along a day/night cycle: pixel gain
	// runs 1 → 1-depth → 1 with period LumaRampPeriodSec.
	LumaRampDepth     float64
	LumaRampPeriodSec float64
	// FlickerAmp is per-frame multiplicative exposure jitter (auto-exposure
	// hunting): gain *= 1 ± amp, hashed from the frame index.
	FlickerAmp float64
	// RainDensity in [0,1] covers the raster with falling bright rain
	// streaks; at 0.5 roughly half the streak cells are lit.
	RainDensity float64
	// FogDensity in [0,1] blends every pixel toward a uniform fog gray,
	// destroying the contrast both the blob detector and tracker feed on.
	FogDensity float64
	// SceneCutPeriodSec re-seats the camera at a hash-derived world offset
	// every period — a hard cut: every tracked feature and box is invalid
	// across the boundary.
	SceneCutPeriodSec float64
	// ShakeAmp is per-frame camera jitter (fraction of frame width), hashed
	// from the frame index: handheld shake or wind on a mast-mounted camera.
	ShakeAmp float64
	// FrameDropRate in [0,1) is the probability a frame is dropped by the
	// capture path and the previous delivered frame repeats (both truth and
	// raster), modelling a camera under load delivering a variable rate.
	FrameDropRate float64
	// DeadSensor marks total sensor failure: every frame is black and carries
	// no ground-truth objects.
	DeadSensor bool

	// Deform is how fast an object's surface appearance slides across it
	// (texture cells per frame). It models the rotation, articulation and
	// perspective change of real objects — the reason optical-flow features
	// gradually slip off what they track. Fast-changing scenarios deform
	// more, which is what makes their tracking accuracy collapse quickly
	// (Fig. 2's Video1).
	Deform float64
	// SensorNoise is the per-frame additive pixel noise amplitude.
	SensorNoise float64
}

// shape returns the aspect ratio (height/width) and a relative size
// multiplier for a class, used when sampling object dimensions.
func shape(c core.Class) (aspect, sizeScale float64) {
	switch c {
	case core.ClassCar:
		return 0.55, 1.0
	case core.ClassTruck, core.ClassBus:
		return 0.7, 1.5
	case core.ClassMotorbike, core.ClassBicycle:
		return 0.9, 0.6
	case core.ClassPerson, core.ClassSkater:
		return 2.4, 0.45
	case core.ClassTrain:
		return 0.35, 3.5
	case core.ClassAirplane:
		return 0.35, 2.0
	case core.ClassBoat:
		return 0.5, 1.6
	case core.ClassDog, core.ClassSheep:
		return 0.8, 0.5
	case core.ClassHorse:
		return 0.9, 0.8
	case core.ClassBird:
		return 0.6, 0.3
	default:
		return 1.0, 1.0
	}
}

// DefaultResolution is the native rendering resolution used throughout the
// reproduction: the paper's 1280×720 dataset scaled by 1/4 so pixel-level
// tracking experiments run quickly. Scenario dynamics are resolution-free.
const (
	DefaultWidth  = 320
	DefaultHeight = 180
	DefaultFPS    = 30
)

// ScenarioParams returns the preset for a scenario kind at the default
// resolution and frame rate. The presets span the content-changing-rate
// spectrum the paper's model adaptation exploits: racetrack and car-mounted
// highway footage change fastest; meeting rooms and residential streets
// barely change.
func ScenarioParams(k Kind) Params {
	p := Params{
		Kind: k,
		W:    DefaultWidth, H: DefaultHeight, FPS: DefaultFPS,
		MinObjects:  2,
		MaxObjects:  7,
		SensorNoise: 0.012,
	}
	switch k {
	case KindHighway:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.8, 7
		p.GrowthStd = 0.13
		p.Deform = 0.08
		p.SpawnPerSec = 0.9
		p.InitialObjects = 3
		p.SpeedMin, p.SpeedMax = 0.18, 0.45
		p.DirBias = geom.Point{X: 1}
		p.DirJitter = 0.05
		p.WanderStd = 0.01
		p.SizeMin, p.SizeMax = 0.046, 0.091
		p.Classes = []classWeight{{core.ClassCar, 6}, {core.ClassTruck, 2}, {core.ClassBus, 1}, {core.ClassMotorbike, 1}}
	case KindIntersection:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.8, 6
		p.GrowthStd = 0.07
		p.Deform = 0.055
		p.SpawnPerSec = 0.6
		p.InitialObjects = 3
		p.SpeedMin, p.SpeedMax = 0.04, 0.22
		p.DirJitter = 1 // all directions
		p.WanderStd = 0.02
		p.SizeMin, p.SizeMax = 0.039, 0.085
		p.Classes = []classWeight{{core.ClassCar, 5}, {core.ClassPerson, 3}, {core.ClassBicycle, 1}, {core.ClassTruck, 1}}
	case KindCityStreet:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.75, 8
		p.GrowthStd = 0.07
		p.Deform = 0.05
		p.SpawnPerSec = 0.5
		p.InitialObjects = 3
		p.SpeedMin, p.SpeedMax = 0.03, 0.18
		p.DirBias = geom.Point{X: 1}
		p.DirJitter = 0.5
		p.WanderStd = 0.02
		p.SizeMin, p.SizeMax = 0.033, 0.078
		p.Classes = []classWeight{{core.ClassCar, 4}, {core.ClassPerson, 4}, {core.ClassBus, 1}, {core.ClassBicycle, 1}}
	case KindTrainStation:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.7, 6
		p.GrowthStd = 0.04
		p.Deform = 0.03
		p.SpawnPerSec = 0.4
		p.InitialObjects = 3
		p.SpeedMin, p.SpeedMax = 0.02, 0.10
		p.DirBias = geom.Point{X: 1}
		p.DirJitter = 0.8
		p.WanderStd = 0.015
		p.SizeMin, p.SizeMax = 0.033, 0.065
		p.Classes = []classWeight{{core.ClassPerson, 7}, {core.ClassTrain, 1}}
	case KindBusStation:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.5, 9
		p.GrowthStd = 0.03
		p.Deform = 0.025
		p.SpawnPerSec = 0.3
		p.InitialObjects = 2
		p.SpeedMin, p.SpeedMax = 0.015, 0.08
		p.DirJitter = 0.9
		p.WanderStd = 0.01
		p.SizeMin, p.SizeMax = 0.033, 0.078
		p.Classes = []classWeight{{core.ClassPerson, 6}, {core.ClassBus, 2}}
	case KindResidential:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.4, 11
		p.GrowthStd = 0.025
		p.Deform = 0.02
		p.SpawnPerSec = 0.12
		p.InitialObjects = 2
		p.SpeedMin, p.SpeedMax = 0.005, 0.05
		p.DirJitter = 1
		p.WanderStd = 0.008
		p.SizeMin, p.SizeMax = 0.033, 0.072
		p.Classes = []classWeight{{core.ClassPerson, 4}, {core.ClassCar, 3}, {core.ClassDog, 2}}
	case KindCarHighway:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.8, 6
		p.GrowthStd = 0.22
		p.Deform = 0.11
		p.SpawnPerSec = 0.7
		p.InitialObjects = 3
		p.SpeedMin, p.SpeedMax = 0.03, 0.12 // relative to ego
		p.DirBias = geom.Point{X: -1}       // overtaken traffic drifts backward
		p.DirJitter = 0.1
		p.WanderStd = 0.01
		p.SizeMin, p.SizeMax = 0.039, 0.085
		p.ScrollSpeed = 0.40
		p.Growth = 0.10
		p.Classes = []classWeight{{core.ClassCar, 6}, {core.ClassTruck, 3}, {core.ClassBus, 1}}
	case KindCarDowntown:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.8, 5
		p.GrowthStd = 0.13
		p.Deform = 0.075
		p.SpawnPerSec = 0.8
		p.InitialObjects = 3
		p.SpeedMin, p.SpeedMax = 0.02, 0.10
		p.DirJitter = 0.7
		p.WanderStd = 0.02
		p.SizeMin, p.SizeMax = 0.033, 0.078
		p.ScrollSpeed = 0.18
		p.Growth = 0.06
		p.Classes = []classWeight{{core.ClassCar, 4}, {core.ClassPerson, 4}, {core.ClassBicycle, 1}, {core.ClassBus, 1}}
	case KindAirplanes:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.3, 12
		p.GrowthStd = 0.06
		p.Deform = 0.03
		p.SpawnPerSec = 0.12
		p.InitialObjects = 1
		p.MaxObjects = 4
		p.MinObjects = 1
		p.SpeedMin, p.SpeedMax = 0.04, 0.15
		p.DirBias = geom.Point{X: 1}
		p.DirJitter = 0.2
		p.WanderStd = 0.005
		p.SizeMin, p.SizeMax = 0.065, 0.143
		p.Classes = []classWeight{{core.ClassAirplane, 1}}
	case KindBoat:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.3, 12
		p.GrowthStd = 0.04
		p.Deform = 0.025
		p.SpawnPerSec = 0.15
		p.InitialObjects = 2
		p.MaxObjects = 4
		p.MinObjects = 1
		p.SpeedMin, p.SpeedMax = 0.01, 0.07
		p.DirBias = geom.Point{X: 1}
		p.DirJitter = 0.3
		p.WanderStd = 0.01
		p.SizeMin, p.SizeMax = 0.052, 0.117
		p.Classes = []classWeight{{core.ClassBoat, 1}}
	case KindWildlife:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.8, 5
		p.GrowthStd = 0.30
		p.Deform = 0.18
		p.SpawnPerSec = 0.35
		p.InitialObjects = 3
		p.SpeedMin, p.SpeedMax = 0.03, 0.22
		p.DirJitter = 1
		p.WanderStd = 0.06 // erratic animal motion
		p.SizeMin, p.SizeMax = 0.033, 0.078
		p.Classes = []classWeight{{core.ClassHorse, 3}, {core.ClassSheep, 3}, {core.ClassDog, 2}, {core.ClassBird, 2}}
	case KindRacetrack:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.7, 5
		p.GrowthStd = 0.70
		p.Deform = 0.30
		p.SpawnPerSec = 1.1
		p.InitialObjects = 3
		p.SpeedMin, p.SpeedMax = 0.45, 0.85
		p.DirBias = geom.Point{X: 1}
		p.DirJitter = 0.05
		p.WanderStd = 0.02
		p.SizeMin, p.SizeMax = 0.046, 0.085
		p.Classes = []classWeight{{core.ClassCar, 6}, {core.ClassMotorbike, 3}}
	case KindMeetingRoom:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.5, 10
		p.GrowthStd = 0.01
		p.Deform = 0.012
		p.SpawnPerSec = 0.04
		p.InitialObjects = 3
		p.MaxObjects = 5
		p.SpeedMin, p.SpeedMax = 0.001, 0.02
		p.DirJitter = 1
		p.WanderStd = 0.004
		p.SizeMin, p.SizeMax = 0.052, 0.098
		p.Classes = []classWeight{{core.ClassPerson, 1}}
	case KindSkatingRink:
		p.SpeedCycleAmp, p.SpeedCyclePeriodSec = 0.8, 5
		p.GrowthStd = 0.30
		p.Deform = 0.22
		p.SpawnPerSec = 0.5
		p.InitialObjects = 3
		p.SpeedMin, p.SpeedMax = 0.10, 0.35
		p.DirJitter = 1
		p.WanderStd = 0.08 // curving skating paths
		p.SizeMin, p.SizeMax = 0.033, 0.065
		p.PanAmp = 0.08
		p.PanPeriodSec = 6
		p.Classes = []classWeight{{core.ClassSkater, 3}, {core.ClassPerson, 1}}
	case KindDayNight, KindRainstorm, KindFogBank, KindOcclusionStorm,
		KindSceneCut, KindStrobeDrop, KindFrozen, KindDeadSensor:
		return hostileParams(k)
	default:
		// Unknown kinds get a benign generic street scene.
		p.Kind = KindCityStreet
		return ScenarioParams(KindCityStreet)
	}
	return p
}

// hostileParams builds the hostile long-tail presets: each takes a benign
// scenario's dynamics and layers the compositional stressors on top. The
// parameter values are documented in DESIGN.md §13.
func hostileParams(k Kind) Params {
	var p Params
	switch k {
	case KindDayNight:
		// A city street through a full day/night cycle with auto-exposure
		// hunting: the raster dims to 15% of its brightness and flickers.
		p = ScenarioParams(KindCityStreet)
		p.LumaRampDepth = 0.85
		p.LumaRampPeriodSec = 40
		p.FlickerAmp = 0.06
	case KindRainstorm:
		// Highway traffic in driving rain: bright streaks overlay the scene
		// and wind shakes the camera.
		p = ScenarioParams(KindHighway)
		p.RainDensity = 0.30
		p.ShakeAmp = 0.012
		p.SensorNoise = 0.02
	case KindFogBank:
		// An intersection in rolling fog: most of every pixel's contrast is
		// replaced by a uniform gray.
		p = ScenarioParams(KindIntersection)
		p.FogDensity = 0.65
	case KindOcclusionStorm:
		// A dense crowd: 100+ small overlapping pedestrians, constant mutual
		// occlusion, the association-hostile case.
		p = ScenarioParams(KindTrainStation)
		p.InitialObjects = 110
		p.MinObjects = 100
		p.MaxObjects = 140
		p.SpawnPerSec = 3
		p.SizeMin, p.SizeMax = 0.02, 0.045
		p.SpeedMin, p.SpeedMax = 0.01, 0.08
	case KindSceneCut:
		// A consumer feed that hard-cuts to a new view every few seconds,
		// with handheld shake in between: every cut invalidates all tracks.
		p = ScenarioParams(KindCityStreet)
		p.SceneCutPeriodSec = 4
		p.ShakeAmp = 0.008
	case KindStrobeDrop:
		// A camera under load: a third of the frames are dropped and the
		// previous frame repeats, so apparent motion is bursty.
		p = ScenarioParams(KindHighway)
		p.FrameDropRate = 0.35
	case KindFrozen:
		// An hours-static scene: objects exist but nothing moves — the
		// degenerate stream that tests empty-change-rate handling.
		p = ScenarioParams(KindMeetingRoom)
		p.SpawnPerSec = 0
		p.SpeedMin, p.SpeedMax = 0, 0
		p.WanderStd = 0
		p.SpeedCycleAmp = 0
		p.Deform = 0
		p.Growth, p.GrowthStd = 0, 0
	case KindDeadSensor:
		// Total sensor failure: black frames, no objects, for as long as the
		// stream runs. The pipeline must idle through it, not fault.
		p = ScenarioParams(KindResidential)
		p.DeadSensor = true
	default:
		return ScenarioParams(KindCityStreet)
	}
	p.Kind = k
	return p
}
