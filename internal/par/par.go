// Package par is the worker pool behind AdaVP's pixel kernels: a row-band
// tiler that splits a 1-D index range (image rows, flow points, columns of a
// summed-area table) into contiguous bands and hands each band to a worker of
// a gang.
//
// The work of a call is a Band value, not a closure: a kernel keeps one band
// per call site in memory it already owns (its scratch), sets the call's
// arguments as the band's fields and passes a pointer to it. A pointer to a
// heap object converts to a Band without allocating, where a closure the gang
// stores escapes and is allocated on every call.
//
// Determinism contract: Rows partitions [0, n) into disjoint, contiguous
// bands and every band executes the identical scalar code it would execute
// serially. Because no two bands touch the same output element and
// floating-point evaluation order inside a band is unchanged, the result is
// bitwise-identical for every worker count — the property the parity tests
// in imgproc, video, flow and detect assert. Changing the worker count can
// therefore never change a simulation or experiment result, only its wall
// time.
//
// A gang is a set of w parked worker goroutines. Each Rows call takes a gang
// of its own for the length of the call, gives every band to one of its
// workers and gives the gang back when the bands are done. No band queue is
// shared between concurrent callers: a watchdog-abandoned detector call
// racing its retry, or the tracker racing the prefetch stage's render, never
// waits behind the other's bands. A run that calls pixel kernels frame after
// frame opens a Hold for its whole length. While any hold is open, returned
// gangs stay parked on a free list, so a warm Rows allocates nothing and
// starts no goroutine; once the last hold is released they are stopped and
// joined. A gang still in use at that moment (an abandoned call) is stopped
// by its call when it gives the gang back. With no hold open, Rows builds a
// gang for its one call and stops it afterwards: the same path, without the
// free list.
//
// Every band goes to a worker and the caller parks until they are done.
// Working the last band on the calling goroutine instead looks cheaper and
// measured dearer: the one spawned band then sits in the busy caller's
// run-next slot, which an idle processor steals only as a last resort and
// after a short sleep, so it starts late on every call (Scharr gradients at
// 320×180, four calls: 0.65 → 1.0 ms on two cores). A parked caller's
// processor picks one band up at once and the other is stolen from the
// ordinary run queue. Idle workers park on their gang's band channel rather
// than spin: spinning workers raised the cost of an empty dispatch from 3.5
// to 30 µs on two vCPUs, where they compete with the caller for the
// processors. A channel hands each band straight to a parked worker; with a
// condition variable the woken workers contended for its mutex, and
// pixel_overlap's frames/s fell ≈ 5 % on two vCPUs.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount holds the configured worker count; 0 selects GOMAXPROCS.
var workerCount atomic.Int32

// SetWorkers configures the number of workers used by Rows. n <= 0 resets to
// the default (runtime.GOMAXPROCS). It is safe to call concurrently with
// Rows; in-flight calls keep the count they started with. Parked gangs larger
// than the new count are stopped.
func SetWorkers(n int) {
	workerCount.Store(int32(max(n, 0)))
	w := Workers()
	var stale *gang
	gangs.mu.Lock()
	for p := &gangs.free; *p != nil; {
		if g := *p; g.size > w {
			*p, g.next, stale = g.next, stale, g
		} else {
			p = &g.next
		}
	}
	gangs.mu.Unlock()
	stopAll(stale)
}

// Workers returns the effective worker count.
func Workers() int {
	if n := int(workerCount.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Band is the work of one Rows call. Rows(lo, hi) works the indices
// [lo, hi) of the call's range, and must treat the bands as disjoint: writes
// may only target indices in [lo, hi). Rows may run on several goroutines at
// once, so it reads the band's fields and writes none of them.
type Band interface {
	Rows(lo, hi int)
}

// calls counts Rows calls, inline ones included.
var calls atomic.Uint64

// Calls returns the number of Rows calls the process has made. The kernel
// packages' allocation ledgers read it to pin each entry point's exact number
// of fan-outs, which a nested fan-out would change (DESIGN.md §9.3).
func Calls() uint64 { return calls.Load() }

// Rows partitions [0, n) into at most Workers() contiguous bands and calls
// b.Rows(lo, hi) for each band, concurrently, returning when all bands are
// done. With one worker (or n < 2) b.Rows(0, n) runs inline on the caller's
// goroutine — the serial reference path the parity tests compare against.
// Rows keeps no reference to b once it returns.
func Rows(n int, b Band) {
	calls.Add(1)
	w := min(Workers(), n)
	if w < 2 {
		if n > 0 {
			b.Rows(0, n)
		}
		return
	}
	g := acquire(w)
	g.run(n, b)
	giveBack(g)
}

// Hold keeps the gangs Rows gives back parked until release is called, so
// that the Rows calls in between reuse them. Holds nest and may overlap:
// gangs are stopped when the last open hold is released. release is
// idempotent, and it joins only the gangs it stops.
func Hold() (release func()) {
	gangs.mu.Lock()
	gangs.holds++
	gangs.mu.Unlock()
	return sync.OnceFunc(unhold)
}

// gangs is the process's count of open holds and its free list of parked
// gangs, linked through gang.next; the list is empty while no hold is open.
var gangs struct {
	mu    sync.Mutex
	holds int
	free  *gang
}

func unhold() {
	var idle *gang
	gangs.mu.Lock()
	if gangs.holds--; gangs.holds == 0 {
		idle, gangs.free = gangs.free, nil
	}
	gangs.mu.Unlock()
	stopAll(idle)
}

// acquire takes a parked gang of size workers off the free list, or builds
// one.
func acquire(size int) *gang {
	gangs.mu.Lock()
	for p := &gangs.free; *p != nil; p = &(*p).next {
		if g := *p; g.size == size {
			*p, g.next = g.next, nil
			gangs.mu.Unlock()
			return g
		}
	}
	gangs.mu.Unlock()
	return newGang(size)
}

// giveBack parks g on the free list while a hold is open and g is no larger
// than the worker count; otherwise it stops g.
func giveBack(g *gang) {
	gangs.mu.Lock()
	if gangs.holds > 0 && g.size <= Workers() {
		g.next, gangs.free = gangs.free, g
		gangs.mu.Unlock()
		return
	}
	gangs.mu.Unlock()
	g.stop()
}

// stopAll stops every gang of a list linked through gang.next.
func stopAll(g *gang) {
	for g != nil {
		next := g.next
		g.stop()
		g = next
	}
}

// gang is size worker goroutines serving one Rows call at a time. Between
// calls its workers park on bands.
type gang struct {
	size  int
	next  *gang    // the next gang on the free list
	bands chan int // band indices of the current call; closed to stop
	b     Band
	n     int // the range of the current call

	done   sync.WaitGroup // bands of the current call
	exited sync.WaitGroup // workers
}

func newGang(size int) *gang {
	g := &gang{size: size, bands: make(chan int, size)}
	g.exited.Add(size)
	for range size {
		go recruit()
	}
	for range size {
		recruits <- g
	}
	return g
}

// recruits hands each new worker its gang: `go recruit()` captures nothing,
// where a go statement that passed the gang would allocate a closure per
// worker. A recruit may serve another new gang than the one that started it;
// every gang still gets size workers. The buffer lets newGang return without
// waiting for its recruits to be scheduled; any size is correct, since the
// recruits are started before their gang is sent, so a full buffer only
// delays the sender.
var recruits = make(chan *gang, 16)

func recruit() { (<-recruits).work() }

// work is one worker: it runs bands until the gang stops.
func (g *gang) work() {
	defer g.exited.Done()
	for i := range g.bands {
		g.b.Rows(bandOf(i, g.n, g.size))
		g.done.Done()
	}
}

// run posts the size bands of [0, n) to the workers and parks until they are
// done.
func (g *gang) run(n int, b Band) {
	g.b, g.n = b, n
	g.done.Add(g.size)
	for i := range g.size {
		g.bands <- i
	}
	g.done.Wait()
	g.b = nil // every worker has read it: a parked gang must not pin its owner
}

// stop ends an idle gang's workers and joins them.
func (g *gang) stop() {
	close(g.bands)
	g.exited.Wait()
}

// bandOf returns band i of w over [0, n). The bands split the range as evenly
// as possible: the first n%w of them get one extra row.
func bandOf(i, n, w int) (lo, hi int) {
	q, r := n/w, n%w
	lo = i*q + min(i, r)
	hi = lo + q
	if i < r {
		hi++
	}
	return lo, hi
}
