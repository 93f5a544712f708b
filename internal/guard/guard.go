// Package guard is the supervision layer of the live pipeline: it runs
// detector calls in supervised goroutines with panic recovery and a watchdog
// deadline derived from the calibrated per-setting latency, and drives a
// Healthy → Degraded → Recovering health state machine that decides how the
// pipeline reacts to faults — reuse the previous calibration, retry with
// capped exponential backoff, escalate to a smaller/faster model setting,
// and return to normal once enough consecutive cycles succeed.
//
// The supervisor is engine-agnostic: internal/rt owns the policy of *what*
// to do on each Decision (which setting to fall back to, what result to
// display); guard owns the bookkeeping — outcomes, health transitions,
// backoff schedule, fault/recovery counters and the event log exported into
// the run trace.
//
// The state machine's thresholds (WatchdogFactor, EmptyBurst, RecoverAfter,
// MaxRetries, DowngradeAfter) are package constants. Config keeps only what
// a caller does vary: the wall-clock deadline floor and backoff, which tests
// shrink to fit a TimeScale-compressed camera, the telemetry sink, the
// stream label and the shared escalation budget.
package guard

import (
	"context"
	"sync"
	"time"

	"adavp/internal/core"
	"adavp/internal/obs"
	"adavp/internal/trace"
)

// Health is the pipeline's supervision state.
type Health int

// Health states.
const (
	// Healthy: recent cycles completed normally.
	Healthy Health = iota
	// Degraded: the supervisor observed a fault (timeout, panic, empty
	// burst) and the pipeline is running on fallbacks.
	Degraded
	// Recovering: cycles are succeeding again but the streak is shorter
	// than RecoverAfter.
	Recovering
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Recovering:
		return "recovering"
	default:
		return "health(?)"
	}
}

// Outcome classifies one supervised call.
type Outcome int

// Outcomes.
const (
	// OK: the call returned within its deadline.
	OK Outcome = iota
	// Timeout: the watchdog fired; the call's goroutine was abandoned.
	Timeout
	// Panicked: the call panicked and was recovered.
	Panicked
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Timeout:
		return "timeout"
	case Panicked:
		return "panic"
	default:
		return "outcome(?)"
	}
}

// Components, for event records.
const (
	ComponentDetector = "detector"
	ComponentTracker  = "tracker"
)

// The supervision policy's thresholds, fixed as the paper fixes its own
// tunables: no run sets other values.
const (
	// WatchdogFactor scales the calibrated mean detection latency into the
	// watchdog deadline (deadline = mean × factor, floored at
	// Config.MinDeadline).
	WatchdogFactor = 8
	// EmptyBurst is the number of consecutive empty detection results that
	// counts as a fault (legitimately empty scenes make short empty runs
	// normal).
	EmptyBurst = 8
	// RecoverAfter is the number of consecutive successful cycles required
	// to return from Recovering to Healthy.
	RecoverAfter = 3
	// MaxRetries bounds the in-cycle retries after a hard fault.
	MaxRetries = 2
	// DowngradeAfter is the number of consecutive hard faults after which
	// the supervisor recommends escalating to a smaller/faster model
	// setting.
	DowngradeAfter = 2
)

// Config tunes the supervision layer. The zero value takes the documented
// defaults.
type Config struct {
	// MinDeadline floors the watchdog deadline in wall-clock time — emulated
	// Detect calls return in microseconds, so the calibrated budget scaled
	// by a small TimeScale would otherwise be uselessly tight. Default: 100ms.
	MinDeadline time.Duration
	// BackoffBase is the first retry backoff (wall clock); it doubles per
	// consecutive fault up to BackoffMax. Defaults: 5ms, 250ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Obs, when set, receives the supervisor's telemetry: the health gauge,
	// fault/action counters, and every event-log entry mirrored into the
	// journal (internal/obs schema). Nil disables publishing.
	Obs *obs.Registry
	// Stream names the stream this supervisor belongs to in a multi-stream
	// serving run: every published series gains a stream=<id> label and
	// journal events carry the id, so N streams sharing one registry stay
	// distinguishable. Empty (single-stream) leaves the schema unchanged.
	Stream string
	// Budget, when set, is an escalation budget shared with the other
	// streams' supervisors: a model-setting downgrade may only be applied
	// while the budget has capacity left (AllowDowngrade). Nil is unlimited.
	Budget *EscalationBudget
}

// WithDefaults returns the config with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.MinDeadline <= 0 {
		c.MinDeadline = 100 * time.Millisecond
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	return c
}

// Stats are the supervisor's fault/recovery counters.
type Stats struct {
	// Timeouts and Panics count hard faults observed on supervised calls
	// (both components).
	Timeouts int
	Panics   int
	// EmptyBursts counts runs of EmptyBurst consecutive empty
	// detection results.
	EmptyBursts int
	// Retries counts in-cycle re-attempts after hard faults.
	Retries int
	// Downgrades counts model-setting escalations to a smaller setting.
	Downgrades int
	// Recoveries counts Degraded/Recovering → Healthy transitions.
	Recoveries int
	// Abandoned counts call goroutines left behind by the watchdog.
	Abandoned int
}

// EscalationBudget caps the total number of model-setting downgrades a group
// of supervisors may apply. In a multi-stream serving run every stream's
// supervisor shares one budget, so a correlated fault burst (an overloaded
// accelerator times out for everyone at once) cannot stampede every stream
// onto the smallest model — the first takers downgrade, the rest ride out
// the burst on retries and held calibrations. A nil budget is unlimited.
//
// A budget with a refill interval additionally recovers capacity over time:
// one grant is restored per interval of elapsed pipeline time, saturating at
// the initial capacity. Refill is clock-free — time is passed in by the
// caller (Advance/TakeAt), wall time in rt, virtual time in sim — so
// refillable budgets stay deterministic where the engine is.
type EscalationBudget struct {
	mu         sync.Mutex // guards every field below
	remaining  int
	capacity   int
	every      time.Duration // refill interval; 0 is a one-shot budget
	lastCredit time.Duration // pipeline time refill was last accounted to
}

// NewEscalationBudget returns a budget allowing n downgrades across every
// supervisor that shares it, restoring one grant per `every` of elapsed
// pipeline time (as reported to Advance or TakeAt), saturating at n. every
// <= 0 never refills; n <= 0 yields an exhausted budget.
func NewEscalationBudget(n int, every time.Duration) *EscalationBudget {
	n = max(n, 0)
	return &EscalationBudget{remaining: n, capacity: n, every: max(every, 0)}
}

// Advance credits refill for pipeline time now: one grant per full refill
// interval since the last credit, saturating at capacity. Time is monotone —
// an earlier (or equal) now than previously seen is a no-op, which makes
// concurrent callers with slightly skewed clocks safe. No-op on nil or
// non-refillable budgets.
func (b *EscalationBudget) Advance(now time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advance(now)
}

// advance is Advance with b.mu held.
func (b *EscalationBudget) advance(now time.Duration) {
	if b.every <= 0 || now <= b.lastCredit {
		return
	}
	units := (now - b.lastCredit) / b.every
	b.lastCredit += units * b.every
	b.remaining = min(b.remaining+int(units), b.capacity)
}

// TakeAt credits refill up to pipeline time now, then consumes one downgrade
// if capacity remains, reporting whether it was granted. A nil budget always
// grants. Safe for concurrent use.
func (b *EscalationBudget) TakeAt(now time.Duration) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advance(now)
	if b.remaining <= 0 {
		return false
	}
	b.remaining--
	return true
}

// Remaining returns the downgrades left (a nil budget reports -1, unlimited).
func (b *EscalationBudget) Remaining() int {
	if b == nil {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.remaining
}

// Decision is the supervisor's recommendation after a fault.
type Decision struct {
	// Backoff is how long to wait before retrying the cycle.
	Backoff time.Duration
	// Downgrade recommends escalating to a smaller/faster model setting.
	Downgrade bool
}

// Supervisor owns the health state machine and fault accounting of one run.
// It is safe for concurrent use by the detector and tracker goroutines.
type Supervisor struct {
	cfg Config

	mu          sync.Mutex
	health      Health
	okStreak    int
	emptyStreak int
	failStreak  int
	stats       Stats
	events      []trace.FaultEvent
}

// New returns a supervisor with the given (defaulted) config.
func New(cfg Config) *Supervisor {
	s := &Supervisor{cfg: cfg.WithDefaults()}
	s.cfg.Obs.Gauge(obs.MetricGuardHealth, obs.WithStream(s.cfg.Stream)...).Set(float64(Healthy))
	return s
}

// AllowDowngrade reports whether a recommended model-setting downgrade may
// actually be applied, consuming one unit of the shared escalation budget
// when granted. at is the pipeline time of the triggering fault; refillable
// budgets credit recovery up to it first. Callers must check that a smaller
// setting exists *first* (core.NextSmaller): a stream already at the
// smallest setting has nothing to escalate to, and asking anyway would burn
// budget other streams need. With no budget configured every downgrade is
// allowed.
func (s *Supervisor) AllowDowngrade(at time.Duration) bool {
	return s.cfg.Budget.TakeAt(at)
}

// Config returns the resolved configuration.
func (s *Supervisor) Config() Config { return s.cfg }

// Health returns the current health state.
func (s *Supervisor) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.health
}

// Stats returns a snapshot of the counters.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Events returns a copy of the fault/recovery event log, in order.
func (s *Supervisor) Events() []trace.FaultEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]trace.FaultEvent, len(s.events))
	copy(out, s.events)
	return out
}

// event appends one record and mirrors it into the observability layer;
// callers hold s.mu.
func (s *Supervisor) event(component, kind, action string, cycle, frame int, at time.Duration) {
	s.events = append(s.events, trace.FaultEvent{
		Component: component, Kind: kind, Action: action,
		Cycle: cycle, Frame: frame, At: at,
	})
	journalComponent := component
	if s.cfg.Stream != "" {
		journalComponent = component + "@" + s.cfg.Stream
	}
	s.cfg.Obs.Record(at, journalComponent, kind, action)
	switch action {
	case "timeout", "panic", "empty-burst":
		s.cfg.Obs.Counter(obs.MetricGuardFaults, obs.WithStream(s.cfg.Stream, obs.L("component", component), obs.L("kind", action))...).Inc()
	case "retry", "downgrade", "recovered":
		s.cfg.Obs.Counter(obs.MetricGuardActions, obs.WithStream(s.cfg.Stream, obs.L("action", action))...).Inc()
	}
}

// setHealth transitions the state machine and publishes the gauge; callers
// hold s.mu.
func (s *Supervisor) setHealth(h Health) {
	s.health = h
	s.cfg.Obs.Gauge(obs.MetricGuardHealth, obs.WithStream(s.cfg.Stream)...).Set(float64(h))
}

// callResult carries one supervised call's outcome across the goroutine.
type callResult struct {
	dets     []core.Detection
	panicked bool
}

// Call runs fn in a supervised goroutine: panics are recovered and reported
// as Panicked, and a call that outlives deadline is abandoned (the goroutine
// keeps draining in the background; its eventual result is discarded) and
// reported as Timeout. The context passed to fn is cancelled the moment the
// watchdog abandons the call (and, harmlessly, after a completed call
// returns), so fn can tell "my result will be used" from "I am a zombie and
// a retry may already be running" — which is what lets pooled resources be
// dropped instead of double-shared. Because abandoned calls may still be
// executing when the caller retries, fn must tolerate overlapping
// invocations.
func (s *Supervisor) Call(deadline time.Duration, fn func(ctx context.Context) []core.Detection) ([]core.Detection, Outcome) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := make(chan callResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- callResult{panicked: true}
			}
		}()
		ch <- callResult{dets: fn(ctx)}
	}()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.panicked {
			return nil, Panicked
		}
		return r.dets, OK
	case <-timer.C:
		// The deferred cancel marks the abandoned goroutine's context done
		// before Call returns, strictly before any retry can start.
		return nil, Timeout
	}
}

// ObserveSuccess folds one completed cycle into the state machine. empty
// marks cycles whose detector returned no detections — they feed the
// empty-burst detector but never advance recovery. The return value reports
// a transition back to Healthy (callers may restore their preferred model
// setting on it).
func (s *Supervisor) ObserveSuccess(empty bool, cycle, frame int, at time.Duration) (recovered bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if empty {
		s.emptyStreak++
		if s.emptyStreak == EmptyBurst {
			s.stats.EmptyBursts++
			s.setHealth(Degraded)
			s.okStreak = 0
			s.event(ComponentDetector, "empty", "empty-burst", cycle, frame, at)
		}
		return false
	}
	s.emptyStreak = 0
	s.failStreak = 0
	switch s.health {
	case Healthy:
	case Degraded:
		s.setHealth(Recovering)
		s.okStreak = 1
	case Recovering:
		s.okStreak++
		if s.okStreak >= RecoverAfter {
			s.setHealth(Healthy)
			s.stats.Recoveries++
			s.event(ComponentDetector, "", "recovered", cycle, frame, at)
			return true
		}
	}
	return false
}

// ObserveFault folds one hard fault (timeout or panic) into the state
// machine and returns the recommended reaction.
func (s *Supervisor) ObserveFault(component string, o Outcome, cycle, frame int, at time.Duration) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch o {
	case Timeout:
		s.stats.Timeouts++
		s.stats.Abandoned++
	case Panicked:
		s.stats.Panics++
	}
	s.setHealth(Degraded)
	s.okStreak = 0
	s.emptyStreak = 0
	s.failStreak++
	s.event(component, o.String(), o.String(), cycle, frame, at)

	backoff := s.cfg.BackoffBase
	for i := 1; i < s.failStreak && backoff < s.cfg.BackoffMax; i++ {
		backoff *= 2
	}
	if backoff > s.cfg.BackoffMax {
		backoff = s.cfg.BackoffMax
	}
	return Decision{
		Backoff:   backoff,
		Downgrade: s.failStreak%DowngradeAfter == 0,
	}
}

// NoteRetry records one in-cycle retry.
func (s *Supervisor) NoteRetry(cycle, frame int, at time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Retries++
	s.event(ComponentDetector, "", "retry", cycle, frame, at)
}

// NoteDowngrade records an applied model-setting escalation.
func (s *Supervisor) NoteDowngrade(cycle, frame int, at time.Duration, from, to string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Downgrades++
	s.event(ComponentDetector, from+"->"+to, "downgrade", cycle, frame, at)
}
