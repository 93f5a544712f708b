// Package par is the worker pool behind AdaVP's pixel kernels: a row-band
// tiler that splits a 1-D index range (image rows, flow points, columns of a
// summed-area table) into contiguous bands and runs one goroutine per band.
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
// The pool is intentionally unstructured (no long-lived worker goroutines):
// bands are short-lived goroutines joined by a WaitGroup. At image-kernel
// granularity (hundreds of microseconds per band) goroutine spawn cost is
// noise, and the absence of shared queues keeps the package trivially safe
// for concurrent use from the supervised live pipeline, where a timed-out
// detector call can still be running while its retry starts.
//
// Every band gets a goroutine of its own and the caller parks until they are
// done. Working the last band on the calling goroutine instead looks cheaper
// and measured dearer: the one spawned band then sits in the busy caller's
// run-next slot, which an idle processor steals only as a last resort and
// after a short sleep, so it starts late on every call (Scharr gradients at
// 320×180, four calls: 0.65 → 1.0 ms on two cores). A parked caller's
// processor picks one band up at once and the other is stolen from the
// ordinary run queue.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount holds the configured worker count; 0 selects runtime.NumCPU.
var workerCount atomic.Int32

// SetWorkers configures the number of workers used by Rows. n <= 0 resets to
// the default (runtime.NumCPU). It is safe to call concurrently with Rows;
// in-flight calls keep the count they started with.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerCount.Store(int32(n))
}

// Workers returns the effective worker count.
func Workers() int {
	if n := int(workerCount.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// serialThreshold is the band count below which Rows runs inline: splitting
// fewer rows than this across goroutines costs more than it saves.
const serialThreshold = 2

// Rows partitions [0, n) into at most Workers() contiguous bands and calls
// fn(lo, hi) for each band, concurrently, returning when all bands are done.
// fn must treat the bands as disjoint: writes may only target indices in
// [lo, hi). With one worker (or n < 2) fn(0, n) runs inline on the caller's
// goroutine — the serial reference path the parity tests compare against.
func Rows(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w < serialThreshold || n < serialThreshold {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	// Split as evenly as possible: the first `rem` bands get one extra row.
	band := n / w
	rem := n % w
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + band
		if i < rem {
			hi++
		}
		// The closure captures its band (one allocation) instead of taking
		// it as arguments, which the compiler would wrap in a second closure.
		bandLo := lo
		go func() {
			defer wg.Done()
			fn(bandLo, hi)
		}()
		lo = hi
	}
	wg.Wait()
}
