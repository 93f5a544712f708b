package serve

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"adavp/internal/core"
	"adavp/internal/obs"
	"adavp/internal/rng"
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
	runs := scriptedScenarios(t, func(scripts []script, cfg VirtualConfig) {
		name := fmt.Sprintf("%+v %+v", cfg, scripts)
		resA, logA := checkRun(t, name, scripts, cfg, gap)
		resB, logB := checkRun(t, name, scripts, cfg, gap)
		if resA != resB || !reflect.DeepEqual(logA, logB) {
			t.Fatalf("%s: two runs differ", name)
		}
	})
	t.Logf("%d scenarios checked", runs)
}

// scriptedScenarios calls visit on every TestRunVirtualScripted scenario and
// returns how many there were.
func scriptedScenarios(t *testing.T, visit func(scripts []script, cfg VirtualConfig)) int {
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
					visit(scripts, VirtualConfig{Slots: slots, QueueBound: bound, Batch: batch})
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
	return runs
}

// TestRunVirtualGrantNeverPrecedesRequest pins exact grant times on the
// smallest scenarios that show when a grant happens. The first is the
// defect this test was written against: slot 0 idles forward to t=10ms and
// admits everything issued by then, but B=1 leaves the second request
// queued; slot 1, still free at t=0, must not grant it before t=10ms. The
// other two show what Linger means on the virtual clock: the loop holds a
// short batch only up to arrivals it already knows of inside the window. A
// lone request is granted at once, not at the deadline. An incompatible
// arrival at 5ms moves the first request's grant to 5ms, and nothing joins
// its batch.
func TestRunVirtualGrantNeverPrecedesRequest(t *testing.T) {
	one := func(setting core.Setting, start time.Duration) script {
		return script{setting: setting, start: start, spans: []time.Duration{30 * msec}, tail: -1}
	}
	linger := VirtualConfig{Slots: 1, Batch: BatchConfig{Size: 2, Linger: 8 * msec}}
	for _, tc := range []struct {
		name          string
		scripts       []script
		cfg           VirtualConfig
		grants, ends  []time.Duration // by stream
		busy, horizon time.Duration
		maxBatch      int
	}{
		{"two arrivals, two idle slots", []script{one(core.Setting512, 10*msec), one(core.Setting512, 10*msec)},
			VirtualConfig{Slots: 2, Batch: BatchConfig{Size: 1}},
			[]time.Duration{10 * msec, 10 * msec}, []time.Duration{40 * msec, 40 * msec}, 60 * msec, 40 * msec, 1},
		{"a lone request under linger", []script{one(core.Setting512, 0)}, linger,
			[]time.Duration{0}, []time.Duration{30 * msec}, 30 * msec, 30 * msec, 1},
		{"an incompatible arrival inside the linger window", []script{one(core.Setting512, 0), one(core.Setting320, 5*msec)}, linger,
			[]time.Duration{5 * msec, 35 * msec}, []time.Duration{35 * msec, 65 * msec}, 60 * msec, 65 * msec, 1},
	} {
		res, log := checkRun(t, tc.name, tc.scripts, tc.cfg, 10*msec)
		for _, e := range log {
			if e.kind == 'C' && (e.grant != tc.grants[e.stream] || e.end != tc.ends[e.stream]) {
				t.Errorf("%s: stream %d granted %v, ended %v; want %v and %v", tc.name, e.stream, e.grant, e.end, tc.grants[e.stream], tc.ends[e.stream])
			}
		}
		if res.Busy != tc.busy || res.Horizon != tc.horizon || res.MaxBatch != tc.maxBatch {
			t.Errorf("%s: busy %v over horizon %v, largest batch %d; want %v over %v, %d", tc.name, res.Busy, res.Horizon, res.MaxBatch, tc.busy, tc.horizon, tc.maxBatch)
		}
	}
}

// virtualRef is runVirtualRef's state: due holds every stream's due time.
type virtualRef struct {
	streams VirtualStreams
	q       *FairQueue
	due     []time.Duration // when stream i's next request is issued, or never
	asked   []time.Duration // when stream i's admitted request was issued
	depth   *obs.Gauge
	sizes   *obs.Histogram
	res     VirtualResult
}

// runVirtualRef is RunVirtual as it was before admission peeked at a
// due-time heap: the same loop, with admit scanning every stream for the
// strictly earliest due time (lowest index among ties). It is the oracle
// TestRunVirtualMatchesScan holds the heap to.
func runVirtualRef(start []time.Duration, streams VirtualStreams, cfg VirtualConfig) VirtualResult {
	batch := cfg.Batch.WithDefaults()
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = len(start)
	}
	v := &virtualRef{
		streams: streams,
		q:       NewFairQueue(cfg.QueueBound),
		due:     append([]time.Duration(nil), start...),
		asked:   make([]time.Duration, len(start)),
		depth:   cfg.Obs.Gauge(obs.MetricQueueDepth),
		sizes:   cfg.Obs.Histogram(obs.MetricBatchSize, obs.BatchSizeBuckets),
	}
	free := make([]time.Duration, cfg.Slots)
	var members []Request
	for {
		si := 0
		for i := 1; i < len(free); i++ {
			if free[i] < free[si] {
				si = i
			}
		}
		t := free[si]
		next := v.admit(t)
		if v.q.Len() == 0 {
			if next == never {
				break
			}
			t = next // nothing is asking yet: the slot idles to the next arrival
			next = v.admit(t)
		}
		members = v.q.AppendBatch(members[:0], batch.Size, nil)
		for deadline := t + batch.Linger; len(members) < batch.Size && next <= deadline; {
			t = next
			next = v.admit(t)
			members = v.q.AppendBatch(members, batch.Size, nil)
		}
		v.noteDepth()
		free[si] = v.execute(members, t)
	}
	return v.res
}

// noteDepth tracks the queue's peak depth and mirrors its level to the gauge.
func (v *virtualRef) noteDepth() {
	v.res.PeakQueueDepth = max(v.res.PeakQueueDepth, v.q.Len())
	v.depth.Set(float64(v.q.Len()))
}

// admit moves every request issued by t into the wait queue, in (request
// time, index) order so simultaneous arrivals enqueue deterministically, and
// returns when the next one after t is issued (never if no stream has one). A
// full queue refuses: the stream retries when its Refused callback says, or
// retires.
func (v *virtualRef) admit(t time.Duration) (next time.Duration) {
	for {
		i := -1
		next = never
		for j, at := range v.due {
			if at < next { // strictly: the lowest index wins among equal times
				i, next = j, at
			}
		}
		if next > t {
			break
		}
		r := v.streams.Key(i)
		r.Index = i
		if v.q.Push(r) {
			v.asked[i], v.due[i] = next, never
		} else {
			v.due[i] = dueAt(v.streams.Refused(i, next))
		}
	}
	v.noteDepth()
	return next
}

// execute grants one drained batch a slot that is free at t and returns when
// the slot frees again. Every member is planned in batch order, the
// detecting members' spans fuse through BatchLatency, and then every
// detecting member is completed in batch order against the shared end — so a
// client's random draws keep their place whatever the batch size.
func (v *virtualRef) execute(members []Request, t time.Duration) time.Duration {
	v.res.Batches++
	v.res.Granted += len(members)
	v.res.MaxBatch = max(v.res.MaxBatch, len(members))
	v.sizes.Observe(float64(len(members)))

	// A slot that idled forward or lingered admitted everything issued by
	// its own, later, clock, and a slot freed before that finds those
	// requests still queued: it idles until the last of its members has
	// asked, so a grant never precedes a request it serves.
	for _, r := range members {
		t = max(t, v.asked[r.Index])
	}
	end := t
	var maxSpan time.Duration
	detecting := members[:0]
	for _, r := range members {
		span, detects := v.streams.Plan(r.Index, v.asked[r.Index], t)
		v.res.MaxSingleSpan = max(v.res.MaxSingleSpan, span)
		if detects {
			maxSpan = max(maxSpan, span)
			detecting = append(detecting, r)
		} else {
			end = max(end, t+span)
		}
	}
	if len(detecting) > 0 {
		batchEnd := t + BatchLatency(maxSpan, len(detecting))
		end = max(end, batchEnd)
		for _, r := range detecting {
			v.due[r.Index] = dueAt(v.streams.Complete(r.Index, v.asked[r.Index], t, batchEnd))
		}
	}
	v.res.MaxOccupancy = max(v.res.MaxOccupancy, end-t)
	v.res.Busy += end - t
	v.res.Horizon = max(v.res.Horizon, end)
	return end
}

// call is one logged VirtualStreams callback with its arguments and returns:
// 'K'ey, 'R'efused, 'P'lan or 'C'omplete.
type call struct {
	kind   byte
	stream int
	args   [3]time.Duration
	key    Request
	ret    time.Duration
	ok     bool
}

// recorder logs every callback a scheduler makes on the streams it wraps.
type recorder struct {
	VirtualStreams
	log []call
}

func (r *recorder) Key(i int) Request {
	k := r.VirtualStreams.Key(i)
	r.log = append(r.log, call{kind: 'K', stream: i, key: k})
	return k
}

func (r *recorder) Refused(i int, at time.Duration) (time.Duration, bool) {
	retry, ok := r.VirtualStreams.Refused(i, at)
	r.log = append(r.log, call{kind: 'R', stream: i, args: [3]time.Duration{at}, ret: retry, ok: ok})
	return retry, ok
}

func (r *recorder) Plan(i int, requested, grant time.Duration) (time.Duration, bool) {
	span, detects := r.VirtualStreams.Plan(i, requested, grant)
	r.log = append(r.log, call{kind: 'P', stream: i, args: [3]time.Duration{requested, grant}, ret: span, ok: detects})
	return span, detects
}

func (r *recorder) Complete(i int, requested, grant, end time.Duration) (time.Duration, bool) {
	next, ok := r.VirtualStreams.Complete(i, requested, grant, end)
	r.log = append(r.log, call{kind: 'C', stream: i, args: [3]time.Duration{requested, grant, end}, ret: next, ok: ok})
	return next, ok
}

// matchScan runs RunVirtual and runVirtualRef over two clients built the
// same way and fails unless their results and callback logs are equal.
func matchScan(t *testing.T, name string, cfg VirtualConfig, client func() ([]time.Duration, VirtualStreams)) {
	t.Helper()
	start, streams := client()
	got := &recorder{VirtualStreams: streams}
	res := RunVirtual(start, got, cfg)
	start, streams = client()
	want := &recorder{VirtualStreams: streams}
	ref := runVirtualRef(start, want, cfg)
	if res != ref {
		t.Fatalf("%s: result %+v, scan gives %+v", name, res, ref)
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("%s: %d callbacks, scan makes %d", name, len(got.log), len(want.log))
	}
	for k := range got.log {
		if got.log[k] != want.log[k] {
			t.Fatalf("%s: callback %d is %+v, scan makes %+v", name, k, got.log[k], want.log[k])
		}
	}
}

// randomClient is a seeded VirtualStreams whose times all fall on whole
// milliseconds, so due-time ties are common: streams start within 20 ms,
// ask again 0–3 ms after a calibration, retry a refusal 1–5 ms later,
// switch settings now and then, and retire by a refusal, a grant that
// detects nothing or running out of cycles.
type randomClient struct {
	r         *rng.Stream
	setting   []core.Setting
	lastCalib []time.Duration
	left      []int
}

func newRandomClient(seed uint64, n int) ([]time.Duration, VirtualStreams) {
	c := &randomClient{r: rng.New(seed).DeriveString("client"), setting: make([]core.Setting, n),
		lastCalib: make([]time.Duration, n), left: make([]int, n)}
	start := make([]time.Duration, n)
	for i := range start {
		start[i] = time.Duration(c.r.Intn(20)) * msec
		c.setting[i] = c.pickSetting()
		c.left[i] = 1 + c.r.Intn(12)
	}
	return start, c
}

func (c *randomClient) pickSetting() core.Setting {
	return []core.Setting{core.Setting512, core.Setting416, core.Setting320}[c.r.Intn(3)]
}

func (c *randomClient) Key(i int) Request {
	return Request{Stream: fmt.Sprintf("r%d", i), Setting: c.setting[i], LastCalib: c.lastCalib[i]}
}

func (c *randomClient) Refused(i int, at time.Duration) (time.Duration, bool) {
	return at + time.Duration(1+c.r.Intn(5))*msec, !c.r.Bool(0.02)
}

func (c *randomClient) Plan(i int, requested, grant time.Duration) (time.Duration, bool) {
	return time.Duration(2+c.r.Intn(30)) * msec, !c.r.Bool(0.03)
}

func (c *randomClient) Complete(i int, requested, grant, end time.Duration) (time.Duration, bool) {
	c.lastCalib[i] = end
	if c.left[i]--; c.left[i] == 0 {
		return 0, false
	}
	if c.r.Bool(0.1) {
		c.setting[i] = c.pickSetting()
	}
	return end.Truncate(msec) + time.Duration(c.r.Intn(4))*msec, true
}

// TestRunVirtualMatchesScan holds RunVirtual's due-time heap to the scan it
// replaced: on every TestRunVirtualScripted scenario and on 50 seeded larger
// configurations, the result and the full callback log — order, arguments
// and returns — must be the scan's.
func TestRunVirtualMatchesScan(t *testing.T) {
	const gap = 10 * msec
	scriptedScenarios(t, func(scripts []script, cfg VirtualConfig) {
		matchScan(t, fmt.Sprintf("%+v %+v", cfg, scripts), cfg, func() ([]time.Duration, VirtualStreams) {
			client, start := newScripted(t, scripts, gap)
			return start, client
		})
	})
	seeds := rng.New(35).DeriveString("configs")
	for seed := uint64(1); seed <= 50; seed++ {
		n := 1 + seeds.Intn(300)
		cfg := VirtualConfig{
			Slots:      1 + seeds.Intn(8),
			QueueBound: 1 + seeds.Intn(n),
			Batch:      BatchConfig{Size: 1 + seeds.Intn(8)},
		}
		if seeds.Bool(0.5) {
			cfg.Batch.Linger = time.Duration(1+seeds.Intn(10)) * msec
		}
		matchScan(t, fmt.Sprintf("seed %d, %d streams, %+v", seed, n, cfg), cfg, func() ([]time.Duration, VirtualStreams) {
			return newRandomClient(seed, n)
		})
	}
}

// stuckClient refuses correctly until its stream's retry falls back onto the
// refused request's own time — a retry the queue, still full, would refuse
// again at once, for ever.
type stuckClient struct{ randomClient }

func (c *stuckClient) Refused(i int, at time.Duration) (time.Duration, bool) {
	return at, true
}

// TestRunVirtualPanicsOnRetryNotLater: a Refused callback that breaks the
// VirtualStreams contract by retrying no later than the refused request
// used to make RunVirtual spin; now it panics naming the stream and both
// times.
func TestRunVirtualPanicsOnRetryNotLater(t *testing.T) {
	start, streams := newRandomClient(3, 4)
	client := &stuckClient{*streams.(*randomClient)}
	for i := range start {
		start[i] = 5 * msec
	}
	defer func() {
		msg, _ := recover().(string)
		if want := "stream 1 refused at 5ms asked to retry at 5ms"; !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want it to name %q", msg, want)
		}
	}()
	RunVirtual(start, client, VirtualConfig{Slots: 1, QueueBound: 1})
	t.Fatal("RunVirtual returned")
}
