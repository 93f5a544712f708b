package serve

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"adavp/internal/core"
)

// A scripted client for RunVirtual: no engines, no rng. Each stream follows a
// fixed script, every callback is logged and checked against the stream's
// request state machine, and the log is what the properties below are read
// from.

const msec = time.Millisecond

// script is one scripted stream.
type script struct {
	setting core.Setting
	start   time.Duration
	spans   []time.Duration // span of each detecting cycle, in order
	// tail >= 0 ends the stream the way sim.RunMulti's exhausted video does:
	// one more grant that detects nothing and lasts tail. tail < 0 ends it
	// the way the load generator's horizon does: retired by its last Complete.
	tail time.Duration
}

// event is one logged callback: 'R'efused, 'P'lan or 'C'omplete.
type event struct {
	kind                  byte
	stream                int
	requested, grant, end time.Duration
	span                  time.Duration
	detects               bool
}

type scripted struct {
	t       *testing.T
	scripts []script
	gap     time.Duration // re-request and refusal-retry interval

	asking    []time.Duration // request time of stream i's open request; -1 when it has none
	granted   []bool          // stream i is between Plan and Complete
	cycle     []int
	lastCalib []time.Duration
	maxAge    time.Duration
	refused   int
	log       []event
}

func newScripted(t *testing.T, scripts []script, gap time.Duration) (*scripted, []time.Duration) {
	s := &scripted{t: t, scripts: scripts, gap: gap,
		asking: make([]time.Duration, len(scripts)), granted: make([]bool, len(scripts)),
		cycle: make([]int, len(scripts)), lastCalib: make([]time.Duration, len(scripts))}
	start := make([]time.Duration, len(scripts))
	for i, sc := range scripts {
		start[i], s.asking[i] = sc.start, sc.start
	}
	return s, start
}

func (s *scripted) Key(i int) Request {
	if s.asking[i] < 0 || s.granted[i] {
		s.t.Fatalf("Key(%d) for a stream with no open request", i)
	}
	return Request{Stream: fmt.Sprintf("s%d", i), Setting: s.scripts[i].setting, LastCalib: s.lastCalib[i]}
}

func (s *scripted) Refused(i int, at time.Duration) (time.Duration, bool) {
	if at != s.asking[i] || s.granted[i] {
		s.t.Fatalf("Refused(%d, %v): open request is %v (granted %v)", i, at, s.asking[i], s.granted[i])
	}
	s.refused++
	s.log = append(s.log, event{kind: 'R', stream: i, requested: at})
	s.asking[i] = at + s.gap
	return s.asking[i], true
}

func (s *scripted) Plan(i int, requested, grant time.Duration) (time.Duration, bool) {
	if requested != s.asking[i] || s.granted[i] {
		s.t.Fatalf("Plan(%d, %v): open request is %v (granted %v)", i, requested, s.asking[i], s.granted[i])
	}
	sc := s.scripts[i]
	e := event{kind: 'P', stream: i, requested: requested, grant: grant, span: sc.tail}
	if s.cycle[i] < len(sc.spans) {
		e.span, e.detects = sc.spans[s.cycle[i]], true
		s.granted[i] = true
	} else {
		s.asking[i] = -1 // the tail grant: leaves after its span, never asks again
	}
	s.cycle[i]++
	s.log = append(s.log, e)
	return e.span, e.detects
}

func (s *scripted) Complete(i int, requested, grant, end time.Duration) (time.Duration, bool) {
	if !s.granted[i] || requested != s.asking[i] {
		s.t.Fatalf("Complete(%d, %v): not granted (open request %v)", i, requested, s.asking[i])
	}
	s.granted[i] = false
	s.log = append(s.log, event{kind: 'C', stream: i, requested: requested, grant: grant, end: end})
	s.maxAge = max(s.maxAge, end-s.lastCalib[i])
	s.lastCalib[i] = end
	sc := s.scripts[i]
	if s.cycle[i] >= len(sc.spans) && sc.tail < 0 {
		s.asking[i] = -1
		return 0, false
	}
	s.asking[i] = end + s.gap
	return s.asking[i], true
}

// batchView is one slot grant reconstructed from the log.
type batchView struct {
	grant, end time.Duration
	members    []event // the Plan events, in batch order
	completed  int
}

// batches splits the log into slot grants. All of a batch's Plans precede all
// of its Completes, so a Plan after a Complete opens a new batch; two
// batches with no Complete between them (the first held only tail grants)
// are told apart by grant time, setting or capacity.
func (s *scripted) batches(size int) []batchView {
	var out []batchView
	afterComplete := true
	for _, e := range s.log {
		switch e.kind {
		case 'P':
			cur := len(out) - 1
			if afterComplete || e.grant != out[cur].grant || len(out[cur].members) == size ||
				s.scripts[e.stream].setting != s.scripts[out[cur].members[0].stream].setting {
				out = append(out, batchView{grant: e.grant, end: e.grant})
				cur++
			}
			out[cur].members = append(out[cur].members, e)
			if !e.detects {
				out[cur].end = max(out[cur].end, e.grant+e.span)
			}
			afterComplete = false
		case 'C':
			cur := len(out) - 1
			out[cur].end = max(out[cur].end, e.end)
			out[cur].completed++
			afterComplete = true
		}
	}
	return out
}

// checkRun runs one scripted scenario and asserts the loop's contract on it.
func checkRun(t *testing.T, name string, scripts []script, cfg VirtualConfig, gap time.Duration) (VirtualResult, []event) {
	t.Helper()
	client, start := newScripted(t, scripts, gap)
	res := RunVirtual(start, client, cfg)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s\nlog: %+v", name, fmt.Sprintf(format, args...), client.log)
	}

	// Every request ended in exactly one grant, or in a refusal and a retry;
	// every script ran to its end.
	want := 0
	for i, sc := range scripts {
		n := len(sc.spans)
		if sc.tail >= 0 {
			n++
		}
		want += n
		if client.cycle[i] != n || client.asking[i] >= 0 || client.granted[i] {
			fail("stream %d stopped at cycle %d of %d (open request %v, granted %v)", i, client.cycle[i], n, client.asking[i], client.granted[i])
		}
	}
	if res.Granted != want {
		fail("Granted = %d, want %d", res.Granted, want)
	}
	if cfg.QueueBound <= 0 && client.refused > 0 {
		fail("the default queue bound refused %d requests", client.refused)
	}

	batch := cfg.Batch.WithDefaults()
	size, linger := batch.Size, batch.Linger
	bs := client.batches(size)
	if len(bs) != res.Batches {
		fail("log shows %d batches, result says %d", len(bs), res.Batches)
	}
	var busy, horizon, maxSingle time.Duration
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, b := range bs {
		if len(b.members) > size {
			fail("batch at %v fused %d members, capacity %d", b.grant, len(b.members), size)
		}
		var maxSpan time.Duration
		detecting := 0
		for _, m := range b.members {
			// The defect this test was written against: a slot that idled
			// past an earlier admission drained requests issued after its
			// own free time, so the grant preceded the request.
			if m.grant < m.requested {
				fail("stream %d granted at %v before it asked at %v", m.stream, m.grant, m.requested)
			}
			if m.grant != b.grant {
				fail("stream %d granted at %v inside the batch granted at %v", m.stream, m.grant, b.grant)
			}
			if scripts[m.stream].setting != scripts[b.members[0].stream].setting {
				fail("batch at %v mixes settings", b.grant)
			}
			maxSingle = max(maxSingle, m.span)
			if m.detects {
				detecting++
				maxSpan = max(maxSpan, m.span)
			}
		}
		if detecting != b.completed {
			fail("batch at %v planned %d detections, completed %d", b.grant, detecting, b.completed)
		}
		if detecting > 0 {
			if fused := b.grant + BatchLatency(maxSpan, detecting); b.end < fused {
				fail("batch at %v ended at %v, before its fused latency %v", b.grant, b.end, fused)
			}
		}
		busy += b.end - b.grant
		horizon = max(horizon, b.end)
		if b.end > b.grant {
			edges = append(edges, edge{b.grant, +1}, edge{b.end, -1})
		}
	}
	if busy != res.Busy || horizon != res.Horizon || maxSingle != res.MaxSingleSpan {
		fail("accounting: busy %v horizon %v single %v, result %+v", busy, horizon, maxSingle, res)
	}
	// Per-slot busy intervals are disjoint iff no more than Slots batches
	// ever overlap (releases sort before grants at equal times).
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	level := 0
	for _, e := range edges {
		level += e.delta
		if level > max(cfg.Slots, 1) {
			fail("%d batches overlap at %v on %d slots", level, e.at, cfg.Slots)
		}
	}
	for _, e := range client.log {
		if e.kind == 'C' && (e.grant < e.requested || e.end < e.grant) {
			fail("stream %d completed out of order: asked %v, granted %v, ended %v", e.stream, e.requested, e.grant, e.end)
		}
	}

	if size == 1 && res.Batches != res.Granted {
		fail("Batch{Size:1}: %d grants served %d requests", res.Batches, res.Granted)
	}
	if client.refused == 0 {
		interval := gap
		for _, sc := range scripts {
			interval = max(interval, sc.start)
		}
		if bound := FairnessBoundBatched(len(scripts), cfg.Slots, size, res.MaxSingleSpan, interval, linger); client.maxAge > bound {
			fail("calibration age %v over the fairness bound %v", client.maxAge, bound)
		}
	}
	return res, client.log
}

// TestRunVirtualScripted enumerates small scenarios — up to 4 streams on up
// to 2 slots, B up to 2, with and without linger, two settings, a default and
// a one-entry queue — over small arrival and span alphabets, and checks every
// one against the loop's contract: no grant precedes its request, a batch
// shares one grant time, one setting and at most B members, per-slot busy
// intervals are disjoint, every request is granted once or refused and
// retried, the calibration age stays under FairnessBoundBatched whenever
// nothing was refused, Batch{Size:1} serves one request per grant, and two
// runs are equal. The first slice of exploring all request/release orders.
func TestRunVirtualScripted(t *testing.T) {
	const gap = 10 * msec
	// One choice per stream: when it first asks, how long its detections
	// take, which setting it runs and how it ends.
	var choices []script
	for _, start := range []time.Duration{0, 7 * msec, 40 * msec} {
		for _, span := range []time.Duration{20 * msec, 35 * msec} {
			for _, setting := range []core.Setting{core.Setting512, core.Setting320} {
				tail := time.Duration(-1)
				if span == 35*msec {
					tail = 3 * msec
				}
				choices = append(choices, script{setting: setting, start: start,
					spans: []time.Duration{span, 55*msec - span, span}, tail: tail})
			}
		}
	}
	maxStreams := 4
	if testing.Short() {
		maxStreams = 3
	}
	runs := 0
	check := func(scripts []script) {
		for _, slots := range []int{1, 2} {
			for _, batch := range []BatchConfig{{Size: 1}, {Size: 2}, {Size: 2, Linger: 8 * msec}} {
				for _, bound := range []int{0, 1} {
					cfg := VirtualConfig{Slots: slots, QueueBound: bound, Batch: batch}
					name := fmt.Sprintf("%+v %+v", cfg, scripts)
					resA, logA := checkRun(t, name, scripts, cfg, gap)
					resB, logB := checkRun(t, name, scripts, cfg, gap)
					if resA != resB || !reflect.DeepEqual(logA, logB) {
						t.Fatalf("%s: two runs differ", name)
					}
					runs++
				}
			}
		}
	}
	// A stream's index only breaks ties, so choices are drawn in
	// non-decreasing order (every multiset once) and each is also run
	// reversed, which hands the tie-breaks to the other end.
	var pick func(scripts []script, from int)
	pick = func(scripts []script, from int) {
		if n := len(scripts); n > 0 {
			check(scripts)
			reversed := make([]script, n)
			for i, sc := range scripts {
				reversed[n-1-i] = sc
			}
			check(reversed)
		}
		if len(scripts) == maxStreams {
			return
		}
		for c := from; c < len(choices); c++ {
			pick(append(scripts[:len(scripts):len(scripts)], choices[c]), c)
		}
	}
	pick(nil, 0)
	t.Logf("%d scenarios checked", runs)
}

// TestRunVirtualGrantNeverPrecedesRequest is the smallest instance of the
// defect: slot 0 idles forward to t=10ms and admits everything issued by
// then, but B=1 leaves the second request queued; slot 1, still free at t=0,
// must not grant it before t=10ms.
func TestRunVirtualGrantNeverPrecedesRequest(t *testing.T) {
	scripts := []script{
		{setting: core.Setting512, start: 10 * msec, spans: []time.Duration{30 * msec}, tail: -1},
		{setting: core.Setting512, start: 10 * msec, spans: []time.Duration{30 * msec}, tail: -1},
	}
	res, log := checkRun(t, "two arrivals, two idle slots", scripts, VirtualConfig{Slots: 2, Batch: BatchConfig{Size: 1}}, 10*msec)
	for _, e := range log {
		if e.kind == 'C' && (e.grant != 10*msec || e.end != 40*msec) {
			t.Errorf("stream %d: granted %v, ended %v; want 10ms and 40ms", e.stream, e.grant, e.end)
		}
	}
	if res.Busy != 60*msec || res.Horizon != 40*msec {
		t.Errorf("busy %v over horizon %v; want 60ms over 40ms", res.Busy, res.Horizon)
	}
}
