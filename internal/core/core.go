// Package core defines the vocabulary of the AdaVP pipeline: object classes,
// ground-truth objects, detections, DNN model settings, frames and per-frame
// outputs. It also implements the pipeline mechanisms that the paper's §IV
// describes independently of any execution engine — the tracking-frame
// selector and the detection/tracking cycle bookkeeping — so that both the
// discrete-event simulator (internal/sim) and the real goroutine pipeline
// (internal/rt) share one implementation.
package core

import (
	"fmt"
	"time"

	"adavp/internal/geom"
	"adavp/internal/imgproc"
)

// Class identifies an object category. The set mirrors the COCO classes that
// appear in the paper's dataset description (cars, trucks, trains, persons,
// airplanes, animals, ...).
type Class int

// Object classes. Values start at one so that the zero value is invalid and
// accidental zero-initialized detections are caught by validation.
const (
	ClassInvalid Class = iota
	ClassCar
	ClassTruck
	ClassBus
	ClassMotorbike
	ClassBicycle
	ClassPerson
	ClassTrain
	ClassAirplane
	ClassBoat
	ClassDog
	ClassHorse
	ClassSheep
	ClassBird
	ClassSkater
	numClasses // sentinel; keep last
)

// NumClasses is the number of valid classes.
const NumClasses = int(numClasses) - 1

var classNames = [...]string{
	ClassInvalid:   "invalid",
	ClassCar:       "car",
	ClassTruck:     "truck",
	ClassBus:       "bus",
	ClassMotorbike: "motorbike",
	ClassBicycle:   "bicycle",
	ClassPerson:    "person",
	ClassTrain:     "train",
	ClassAirplane:  "airplane",
	ClassBoat:      "boat",
	ClassDog:       "dog",
	ClassHorse:     "horse",
	ClassSheep:     "sheep",
	ClassBird:      "bird",
	ClassSkater:    "skater",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c <= ClassInvalid || c >= numClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// Valid reports whether c is a defined class.
func (c Class) Valid() bool { return c > ClassInvalid && c < numClasses }

// ConfusionGroup returns the set of classes a detector plausibly confuses
// with c (visually similar categories). The paper's Fig. 5 example shows
// YOLOv3-320 misclassifying cars as trucks and vice versa; the simulated
// detector draws its label-confusion errors from these groups.
func (c Class) ConfusionGroup() []Class {
	switch c {
	case ClassCar, ClassTruck, ClassBus:
		return []Class{ClassCar, ClassTruck, ClassBus}
	case ClassMotorbike, ClassBicycle:
		return []Class{ClassMotorbike, ClassBicycle}
	case ClassPerson, ClassSkater:
		return []Class{ClassPerson, ClassSkater}
	case ClassDog, ClassHorse, ClassSheep:
		return []Class{ClassDog, ClassHorse, ClassSheep}
	default:
		return []Class{c}
	}
}

// Object is a ground-truth object instance in a frame.
type Object struct {
	// ID is stable across frames for the same physical object.
	ID int
	// Class is the object's true category.
	Class Class
	// Box is the ground-truth bounding box in frame pixel coordinates.
	Box geom.Rect
}

// Detection is an object reported by the detector or the tracker: a label,
// a bounding box (left, top, width, height) and a confidence score.
type Detection struct {
	Class Class
	Box   geom.Rect
	Score float64
	// TrackID links a tracked detection back to the ground-truth or detector
	// object it follows. Zero when unknown (e.g. false positives).
	TrackID int
}

// Setting is a DNN model setting: the YOLOv3 input frame size. The paper
// adapts among the four square sizes below at runtime and additionally uses
// YOLOv3-tiny-320 and YOLOv3-704 (the ground-truth reference) in the
// motivation and energy studies.
type Setting int

// Model settings in increasing accuracy/latency order. SettingTiny320 sits
// before Setting320 because it is strictly cheaper and less accurate.
const (
	SettingInvalid Setting = iota
	SettingTiny320
	Setting320
	Setting416
	Setting512
	Setting608
	Setting704
	numSettings // sentinel; keep last
)

// AdaptiveSettings are the four settings AdaVP switches among at runtime
// (§IV-D: 320×320, 416×416, 512×512 and 608×608), smallest first.
var AdaptiveSettings = []Setting{Setting320, Setting416, Setting512, Setting608}

// NextSmaller returns the adaptive setting one step below s
// (608→512→416→320). ok is false when s is already the smallest adaptive
// setting, or is not an adaptive setting at all. The supervision layer uses
// it to escalate a faulting pipeline onto a cheaper model.
func NextSmaller(s Setting) (Setting, bool) {
	for i, a := range AdaptiveSettings {
		if a == s {
			if i == 0 {
				return s, false
			}
			return AdaptiveSettings[i-1], true
		}
	}
	return s, false
}

// InputSize returns the square DNN input resolution in pixels.
func (s Setting) InputSize() int {
	switch s {
	case SettingTiny320, Setting320:
		return 320
	case Setting416:
		return 416
	case Setting512:
		return 512
	case Setting608:
		return 608
	case Setting704:
		return 704
	default:
		return 0
	}
}

// Valid reports whether s is a defined setting.
func (s Setting) Valid() bool { return s > SettingInvalid && s < numSettings }

// String implements fmt.Stringer.
func (s Setting) String() string {
	switch s {
	case SettingTiny320:
		return "YOLOv3-tiny-320"
	case Setting320:
		return "YOLOv3-320"
	case Setting416:
		return "YOLOv3-416"
	case Setting512:
		return "YOLOv3-512"
	case Setting608:
		return "YOLOv3-608"
	case Setting704:
		return "YOLOv3-704"
	default:
		return fmt.Sprintf("setting(%d)", int(s))
	}
}

// ParseSetting inverts String: it maps a setting name back to the Setting.
// ok is false for names String never produces (including the "setting(N)"
// fallback of invalid values).
func ParseSetting(name string) (Setting, bool) {
	for s := SettingTiny320; s < numSettings; s++ {
		if s.String() == name {
			return s, true
		}
	}
	return SettingInvalid, false
}

// Frame is one camera frame presented to the pipeline.
type Frame struct {
	// Index is the zero-based frame number within the video.
	Index int
	// PTS is the presentation timestamp (Index / FPS).
	PTS time.Duration
	// Truth holds the ground-truth objects visible in this frame.
	Truth []Object
	// Pixels is the rendered grayscale frame. It is nil when the pipeline
	// runs in model-level mode (no rasterization); the pixel tracker and the
	// blob detector require it.
	Pixels *imgproc.Gray
}

// Source says which pipeline component produced a frame's displayed result.
type Source int

// Output sources.
const (
	SourceNone Source = iota
	// SourceDetector marks frames whose result came directly from a DNN run.
	SourceDetector
	// SourceTracker marks frames localized by the optical-flow tracker.
	SourceTracker
	// SourceHeld marks frames that reused the previous frame's result because
	// the tracking-frame selector skipped them (§IV-C) or because the policy
	// has no tracker (the "without tracking" baseline).
	SourceHeld
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceNone:
		return "none"
	case SourceDetector:
		return "detector"
	case SourceTracker:
		return "tracker"
	case SourceHeld:
		return "held"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// FrameOutput is the pipeline's result for one camera frame: what was drawn
// on screen for that frame, where it came from, and when it was ready.
type FrameOutput struct {
	FrameIndex int
	Source     Source
	// Setting is the DNN setting of the detection cycle this output belongs to.
	Setting Setting
	// Detections are the boxes displayed for the frame.
	Detections []Detection
	// Ready is the pipeline time at which this output became available.
	Ready time.Duration
}
