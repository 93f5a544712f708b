package adapt

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"adavp/internal/core"
	"adavp/internal/geom"
)

// scriptTracker steps each box one pixel right and returns vels[k] on its
// k-th Step; it panics in Init, or in the Step onto frame panicAt (0: none).
type scriptTracker struct {
	vels      []float64
	panicInit bool
	panicAt   int
	cur       []core.Detection
	steps     int
	inits     int
}

func (s *scriptTracker) Init(_ core.Frame, dets []core.Detection) int {
	s.inits++
	if s.panicInit {
		panic("script: Init")
	}
	s.cur = dets
	return len(dets)
}

func (s *scriptTracker) Step(f core.Frame) ([]core.Detection, float64) {
	if f.Index == s.panicAt {
		panic("script: Step")
	}
	next := make([]core.Detection, len(s.cur))
	for i, d := range s.cur {
		d.Box.Left++
		next[i] = d
	}
	s.cur = next
	v := s.vels[s.steps]
	s.steps++
	return next, v
}

// scriptHooks logs every call and stops before task stopAt (-1 is Init; a
// position past the plan never stops); fetching frame failAt (0: none)
// fails.
type scriptHooks struct {
	stopAt, failAt int
	log            []string
	tasks          []Task
}

func (d *scriptHooks) Fetch(k, i int) (core.Frame, bool) {
	d.log = append(d.log, fmt.Sprintf("fetch %d:%d", k, i))
	return core.Frame{Index: i}, i != d.failAt
}

func (d *scriptHooks) Stop(k int, _ []core.Detection) bool {
	d.log = append(d.log, fmt.Sprintf("stop %d", k))
	return k == d.stopAt
}

func (d *scriptHooks) Sink(t Task) {
	d.log = append(d.log, fmt.Sprintf("sink %d", t.K))
	d.tasks = append(d.tasks, t)
}

// TestCycleRules drives the shared step through each of its exits: a stop
// before Init and before each step, a panic in Init and in a step, a failed
// fetch, and velocities with no valid sample.
func TestCycleRules(t *testing.T) {
	ref := []core.Detection{{Box: geom.Rect{Left: 10, Top: 10, W: 4, H: 4}, Class: 1, Score: 0.9}}
	plan := []int{11, 13, 14}
	vels := []float64{1, 2, 6}
	never := len(plan)
	cases := []struct {
		name     string
		skipInit bool
		plan     []int
		vels     []float64
		stopAt   int
		failAt   int
		panicAt  int
		panicIni bool
		tracked  int
		velocity float64
		log      string
	}{
		{name: "stop before Init", stopAt: -1, tracked: 0, velocity: -1,
			log: "stop -1"},
		{name: "stop before step 0", stopAt: 0, tracked: 0, velocity: -1,
			log: "stop -1, sink -1, stop 0"},
		{name: "stop before step 1", stopAt: 1, tracked: 1, velocity: 1,
			log: "stop -1, sink -1, stop 0, fetch 0:11, sink 0, stop 1"},
		{name: "stop before step 2", stopAt: 2, tracked: 2, velocity: 1.5,
			log: "stop -1, sink -1, stop 0, fetch 0:11, sink 0, stop 1, fetch 1:13, sink 1, stop 2"},
		{name: "no stop", stopAt: never, tracked: 3, velocity: 3,
			log: "stop -1, sink -1, stop 0, fetch 0:11, sink 0, stop 1, fetch 1:13, sink 1, stop 2, fetch 2:14, sink 2"},
		{name: "panic in Init", stopAt: never, panicIni: true, tracked: 0, velocity: -1,
			log: "stop -1, sink -1"},
		{name: "panic in step 0", stopAt: never, panicAt: 11, tracked: 0, velocity: -1,
			log: "stop -1, sink -1, stop 0, fetch 0:11, sink 0"},
		{name: "panic in step 2", stopAt: never, panicAt: 14, tracked: 2, velocity: 1.5,
			log: "stop -1, sink -1, stop 0, fetch 0:11, sink 0, stop 1, fetch 1:13, sink 1, stop 2, fetch 2:14, sink 2"},
		{name: "fetch fails at step 1", stopAt: never, failAt: 13, tracked: 1, velocity: 1,
			log: "stop -1, sink -1, stop 0, fetch 0:11, sink 0, stop 1, fetch 1:13"},
		{name: "no valid velocity", stopAt: never, vels: []float64{math.NaN(), math.Inf(1), -2}, tracked: 3, velocity: -1,
			log: "stop -1, sink -1, stop 0, fetch 0:11, sink 0, stop 1, fetch 1:13, sink 1, stop 2, fetch 2:14, sink 2"},
		{name: "absurd velocities skipped", stopAt: never, vels: []float64{0, 4, 1e9}, tracked: 3, velocity: 4,
			log: "stop -1, sink -1, stop 0, fetch 0:11, sink 0, stop 1, fetch 1:13, sink 1, stop 2, fetch 2:14, sink 2"},
		{name: "skip Init", skipInit: true, stopAt: 1, tracked: 1, velocity: 1,
			log: "stop 0, fetch 0:11, sink 0, stop 1"},
		{name: "empty plan", plan: []int{}, stopAt: never, tracked: 0, velocity: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.plan == nil {
				tc.plan = plan
			}
			if tc.vels == nil {
				tc.vels = vels
			}
			tr := &scriptTracker{vels: tc.vels, panicInit: tc.panicIni, panicAt: tc.panicAt}
			if tc.skipInit {
				tr.cur = ref // where an earlier Init left it
			}
			d := &scriptHooks{stopAt: tc.stopAt, failAt: tc.failAt}
			c := Cycle{Tracker: tr, Ref: core.Frame{Index: 10}, RefDets: ref, SkipInit: tc.skipInit, Plan: tc.plan}
			tracked, velocity := c.Run(Hooks{Fetch: d.Fetch, Stop: d.Stop, Sink: d.Sink})
			if tracked != tc.tracked || velocity != tc.velocity {
				t.Errorf("Run = (%d, %v), want (%d, %v)", tracked, velocity, tc.tracked, tc.velocity)
			}
			if got := strings.Join(d.log, ", "); got != tc.log {
				t.Errorf("calls:\n got %s\nwant %s", got, tc.log)
			}
			if tc.skipInit && tr.inits != 0 {
				t.Errorf("SkipInit ran Init %d times", tr.inits)
			}
			checkTasks(t, d.tasks, ref, tc.plan)
			panicked := len(d.tasks) > 0 && d.tasks[len(d.tasks)-1].Panicked
			if want := tc.panicIni || tc.panicAt != 0; panicked != want {
				t.Errorf("last task panicked: %v, want %v", panicked, want)
			}
		})
	}
}

// checkTasks checks what every cycle's sink receives: Init first, the plan's
// frames in order, each task starting from the boxes the one before it
// published, and a panicked step holding its From and ending the cycle.
func checkTasks(t *testing.T, tasks []Task, ref []core.Detection, plan []int) {
	t.Helper()
	from := ref
	for n, task := range tasks {
		if !reflect.DeepEqual(task.From, from) {
			t.Errorf("task %d starts from %v, want %v", task.K, task.From, from)
		}
		if task.K < 0 {
			if n != 0 || task.Frame != 10 || task.Dets != nil {
				t.Errorf("Init task %+v at position %d", task, n)
			}
			continue
		}
		if task.Frame != plan[task.K] {
			t.Errorf("task %d on frame %d, want %d", task.K, task.Frame, plan[task.K])
		}
		if task.Panicked {
			if !reflect.DeepEqual(task.Dets, task.From) || n != len(tasks)-1 {
				t.Errorf("panicked task %+v at position %d of %d: want From held, last", task, n, len(tasks))
			}
			continue
		}
		if len(task.Dets) != len(from) || task.Dets[0].Box.Left != from[0].Box.Left+1 {
			t.Errorf("task %d published %v from %v", task.K, task.Dets, from)
		}
		from = task.Dets
	}
}
