// Package obs is the live observability layer of the pipeline: a registry of
// atomically-updated counters, gauges and fixed-bucket latency histograms,
// plus a bounded ring-buffer event journal that absorbs guard fault/recovery
// events and adaptation switches. The same schema is published three ways —
// inline by the live pipeline (internal/rt), inline by the simulator
// (internal/sim, with virtual-clock timestamps), and offline by hydrating a
// recorded trace (trace.Run.Hydrate) — so a dashboard scraping /metrics sees
// one vocabulary regardless of where the numbers came from.
//
// Determinism contract: the package never reads the wall clock or any other
// ambient state (it is on the detrand deterministic-package list). Every
// event timestamp is passed in by the caller — wall time in rt, virtual time
// in sim — and Snapshot orders its series by sorted series key and its
// journal by sequence number, so two identical sim runs serialize to
// byte-identical output (the determinism test in internal/sim asserts
// exactly that).
//
// Concurrency contract: metric updates are lock-free atomics and safe from
// any goroutine, including par.Rows worker bands. Snapshot may run
// concurrently with writers; it sees each atomic cell individually
// consistent (a histogram scraped mid-update may transiently show count and
// sum one observation apart, which Prometheus tolerates by design).
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Shared schema: metric names and stage label values published by
// internal/rt, internal/sim and trace hydration. Keeping them here is what
// guarantees live and offline runs report through one vocabulary.
const (
	// MetricStageLatency is a histogram of per-stage latencies in seconds,
	// labeled stage=detect|track|overlay|adapt-decision (detect additionally
	// carries setting and health labels).
	MetricStageLatency = "adavp_stage_latency_seconds"
	// MetricFrames counts displayed frames by source label
	// (detector|tracker|held).
	MetricFrames = "adavp_frames_total"
	// MetricCycles counts completed detection cycles.
	MetricCycles = "adavp_cycles_total"
	// MetricAdaptSwitches counts applied model-setting switches, labeled
	// from/to.
	MetricAdaptSwitches = "adavp_setting_switches_total"
	// MetricVelocity is the last motion velocity fed to the adaptation
	// module, in px/frame.
	MetricVelocity = "adavp_velocity_px_per_frame"
	// MetricGuardHealth is the supervisor state as a number
	// (0 healthy, 1 degraded, 2 recovering).
	MetricGuardHealth = "adavp_guard_health"
	// MetricGuardFaults counts observed hard faults, labeled component and
	// kind (timeout|panic|empty-burst).
	MetricGuardFaults = "adavp_guard_faults_total"
	// MetricGuardActions counts supervisor reactions, labeled action
	// (retry|downgrade|recovered).
	MetricGuardActions = "adavp_guard_actions_total"
	// MetricFaultsInjected counts faults the injection framework actually
	// fired, labeled component and kind.
	MetricFaultsInjected = "adavp_faults_injected_total"
	// MetricSlotWait is a histogram of how long a stream waited for a shared
	// detector slot, in seconds, labeled stream=<id> in multi-stream runs.
	MetricSlotWait = "adavp_detector_slot_wait_seconds"
	// MetricQueueDepth is the number of detection requests currently waiting
	// for a detector slot (aggregate over all streams).
	MetricQueueDepth = "adavp_detector_queue_depth"
	// MetricDetectDeferred counts detection requests rejected by queue
	// backpressure — the stream kept tracking against its stale calibration
	// instead (labeled stream=<id> in multi-stream runs).
	MetricDetectDeferred = "adavp_detector_deferred_total"
	// MetricStreams is the number of streams admitted to a serving run.
	MetricStreams = "adavp_streams"
	// MetricSlotExec is a histogram of how long a granted detection request
	// held its detector slot — setting-switch overhead plus the (possibly
	// batched) inference — in seconds, labeled stream=<id> in multi-stream
	// runs. Together with MetricSlotWait it splits a request's life into
	// queueing vs. execution time.
	MetricSlotExec = "adavp_detector_slot_exec_seconds"
	// MetricBatchSize is a histogram of how many compatible requests each
	// slot grant drained from the wait queue and fused into one batched
	// inference. Mass at 1 under batch capacity B>1 means setting skew (or an
	// empty queue) is fragmenting batches.
	MetricBatchSize = "adavp_detector_batch_size"
	// MetricJournalDropped counts journal events evicted by the bounded ring
	// once it wrapped — how much history /metrics scrapers lost. The series
	// appears after the first drop; its absence means the journal is intact.
	MetricJournalDropped = "adavp_journal_events_dropped_total"
	// MetricPrefetchedWaiting counts the live tracker ring's renders that
	// completed while the stream's detector loop waited for a shared slot —
	// the serve-path overlap: one stream's detect sleep is another's render.
	MetricPrefetchedWaiting = "adavp_frames_prefetched_while_waiting_total"
	// MetricFramesInFlightWaiting is a gauge of the frames a stream has
	// prefetched during its current wait in slot acquisition, 0 outside one.
	MetricFramesInFlightWaiting = "adavp_frames_in_flight_while_waiting"
	// MetricSlotUtilization is the fraction of slot-time spent executing
	// detections over a completed run: total occupancy divided by slots ×
	// horizon. Published by the deterministic schedulers (sim, loadgen),
	// where both numerator and denominator are exact virtual-clock sums.
	MetricSlotUtilization = "adavp_slot_utilization"
)

// Stage label values of MetricStageLatency.
const (
	StageDetect  = "detect"
	StageTrack   = "track"
	StageOverlay = "overlay"
	StageAdapt   = "adapt-decision"
	// StagePrefetch is one build of the live tracker's frame ring: fetching
	// (in pixel mode, rendering) a planned frame ahead of its step.
	StagePrefetch = "prefetch"
)

// DefLatencyBuckets are the default histogram bounds for stage latencies, in
// seconds. They cover the calibrated virtual-clock range (overlay ~3 ms up
// to 608-detection ~500 ms) and the scaled live range (timescale 0.02 puts
// detections at 2–10 ms).
var DefLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// BatchSizeBuckets are the histogram bounds for MetricBatchSize: powers of
// two up to the largest batch capacity any configuration uses.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32}

// DefJournalCap bounds the event journal; older events are dropped.
const DefJournalCap = 512

// Label is one name=value metric dimension.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry holds one run's metrics and journal. The zero value is not
// usable; construct with NewRegistry. All methods are safe for concurrent
// use, and every method (and every method of the instruments it returns) is
// a no-op on a nil receiver, so un-instrumented runs pay a single nil check.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	journal  Journal
}

// NewRegistry returns an empty registry with a DefJournalCap-bounded journal.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		journal:  Journal{cap: DefJournalCap},
	}
}

// seriesKey builds the canonical map key: name plus labels sorted by key.
// The snapshot sorts these keys, which is what makes serialization
// deterministic.
func seriesKey(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range sorted {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String(), sorted
}

// Counter returns the named monotone counter, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key, sorted := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{name: name, labels: sorted}
		r.counters[key] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key, sorted := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{name: name, labels: sorted}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it on first
// use with the given bucket upper bounds (ascending; an implicit +Inf bucket
// is appended). Later calls for an existing series ignore the bounds
// argument — buckets are fixed at creation.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key, sorted := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{name: name, labels: sorted, bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
		r.hists[key] = h
	}
	return h
}

// StageHistogram returns the shared-schema latency histogram for one
// pipeline stage with the default buckets.
func (r *Registry) StageHistogram(stage string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	ls := append([]Label{L("stage", stage)}, labels...)
	return r.Histogram(MetricStageLatency, DefLatencyBuckets, ls...)
}

// Record appends one event to the journal. A nil registry drops it. Once the
// bounded ring wraps, every eviction is mirrored into the
// MetricJournalDropped counter so Snapshot and /metrics expose how much
// history was lost.
func (r *Registry) Record(at time.Duration, component, kind, action string) {
	if r == nil {
		return
	}
	if r.journal.record(at, component, kind, action) {
		r.Counter(MetricJournalDropped).Inc()
	}
}

// JournalDropped returns how many journal events the bounded ring has
// evicted so far (0 on nil).
func (r *Registry) JournalDropped() uint64 {
	if r == nil {
		return 0
	}
	return r.journal.dropped()
}

// Counter is a monotonically-increasing integer metric.
type Counter struct {
	name   string
	labels []Label
	v      atomic.Int64
}

// Add increments the counter by n (negative n is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down.
type Gauge struct {
	name   string
	labels []Label
	bits   atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative-style histogram: bucket i counts
// observations <= bounds[i]; the final bucket is +Inf.
type Histogram struct {
	name    string
	labels  []Label
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample. Bucket bounds are inclusive upper bounds
// (Prometheus `le` semantics): an observation exactly equal to a bound lands
// in that bound's bucket, not the next one.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Explicit v <= bound comparison so the `le`-inclusive contract is
	// locally visible (and NaN falls through every bucket into +Inf, never
	// panicking). Bounds are small fixed arrays; a linear scan beats a
	// binary search at this size and allocates nothing.
	i := 0
	for i < len(h.bounds) && !(v <= h.bounds[i]) {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a latency sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Event is one journal entry.
type Event struct {
	// Seq is the 1-based append sequence number; gaps at the start reveal
	// how many events the bounded ring dropped.
	Seq uint64 `json:"seq"`
	// At is the pipeline timestamp the caller supplied: wall time since run
	// start in rt, virtual time in sim.
	At time.Duration `json:"at_ns"`
	// Component, Kind and Action follow the trace.FaultEvent vocabulary
	// ("detector"/"tracker"/"adapt"/"run"; fault kind or setting change;
	// what happened).
	Component string `json:"component"`
	Kind      string `json:"kind,omitempty"`
	Action    string `json:"action"`
}

// Journal is a bounded ring buffer of events.
type Journal struct {
	mu    sync.Mutex
	cap   int
	buf   []Event
	start int // index of the oldest event once the ring has wrapped
	seq   uint64
}

// record appends one event, reporting whether an older event was evicted to
// make room.
func (j *Journal) record(at time.Duration, component, kind, action string) (dropped bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	ev := Event{Seq: j.seq, At: at, Component: component, Kind: kind, Action: action}
	if len(j.buf) < j.cap {
		j.buf = append(j.buf, ev)
		return false
	}
	j.buf[j.start] = ev
	j.start = (j.start + 1) % j.cap
	return true
}

// dropped returns the total evictions: appends beyond the retained window.
func (j *Journal) dropped() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq - uint64(len(j.buf))
}

// events returns the retained events oldest-first.
func (j *Journal) events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.buf))
	out = append(out, j.buf[j.start:]...)
	out = append(out, j.buf[:j.start]...)
	return out
}

// CounterPoint is one counter series in a snapshot.
type CounterPoint struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugePoint is one gauge series in a snapshot.
type GaugePoint struct {
	Name   string    `json:"name"`
	Labels []Label   `json:"labels,omitempty"`
	Value  SafeFloat `json:"value"`
}

// HistogramPoint is one histogram series in a snapshot. Counts[i] holds the
// observations <= Bounds[i]; the final entry counts the +Inf overflow.
type HistogramPoint struct {
	Name   string    `json:"name"`
	Labels []Label   `json:"labels,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    SafeFloat `json:"sum"`
}

// Snapshot is a point-in-time copy of the registry with deterministic
// ordering: series sorted by name then labels, journal by sequence.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
	Events     []Event          `json:"events"`
}

// Snapshot captures the registry. Safe to call concurrently with updates;
// nil registries yield an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	ckeys := make([]string, 0, len(r.counters))
	for k := range r.counters {
		ckeys = append(ckeys, k)
	}
	sort.Strings(ckeys)
	gkeys := make([]string, 0, len(r.gauges))
	for k := range r.gauges {
		gkeys = append(gkeys, k)
	}
	sort.Strings(gkeys)
	hkeys := make([]string, 0, len(r.hists))
	for k := range r.hists {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	counters := make([]*Counter, len(ckeys))
	for i, k := range ckeys {
		counters[i] = r.counters[k]
	}
	gauges := make([]*Gauge, len(gkeys))
	for i, k := range gkeys {
		gauges[i] = r.gauges[k]
	}
	hists := make([]*Histogram, len(hkeys))
	for i, k := range hkeys {
		hists[i] = r.hists[k]
	}
	r.mu.Unlock()

	s.Counters = make([]CounterPoint, len(counters))
	for i, c := range counters {
		s.Counters[i] = CounterPoint{Name: c.name, Labels: c.labels, Value: c.v.Load()}
	}
	s.Gauges = make([]GaugePoint, len(gauges))
	for i, g := range gauges {
		s.Gauges[i] = GaugePoint{Name: g.name, Labels: g.labels, Value: SafeFloat(g.Value())}
	}
	s.Histograms = make([]HistogramPoint, len(hists))
	for i, h := range hists {
		counts := make([]int64, len(h.buckets))
		for b := range h.buckets {
			counts[b] = h.buckets[b].Load()
		}
		s.Histograms[i] = HistogramPoint{
			Name: h.name, Labels: h.labels, Bounds: h.bounds,
			Counts: counts, Count: h.count.Load(), Sum: SafeFloat(h.Sum()),
		}
	}
	s.Events = r.journal.events()
	return s
}
