package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adavp/internal/core"
	"adavp/internal/serve"
)

// Direct drives of the serving layer's two data structures, without rt on
// top: the pool under 16 mostly-blocked clients (its own goroutines, the one
// place the benchmark starts any beyond what a driven function starts), and
// the fair queue single-threaded at the depth the load generator reaches.

const (
	poolClients = 16
	poolHold    = 2 * time.Millisecond
	queueDepth  = 1000
	queueBatch  = 4
	queueCycles = 200000
)

// drivePool has poolClients goroutines acquire and release slots of a
// serve.NewBatchPool(2, 16, Batch{Size 2}) until grants were granted in all,
// each holding its slot for hold. It returns the wait of every Acquire.
func drivePool(grants int, hold time.Duration) (waits []time.Duration, wall time.Duration, err error) {
	pool := serve.NewBatchPool(2, poolClients, serve.BatchConfig{Size: 2}, nil)
	var remaining atomic.Int64
	remaining.Store(int64(grants))
	perClient := make([][]time.Duration, poolClients)
	errs := make([]error, poolClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < poolClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := fmt.Sprintf("c%02d", c)
			var lastCalib time.Duration
			for remaining.Add(-1) >= 0 {
				t0 := time.Now()
				release, err := pool.Acquire(context.Background(), id, core.Setting512, lastCalib)
				if err != nil {
					// The queue bound equals the client count, so a refusal
					// means the pool lost track of a waiter.
					errs[c] = fmt.Errorf("pool.Acquire: %w", err)
					return
				}
				perClient[c] = append(perClient[c], time.Since(t0))
				if hold > 0 {
					time.Sleep(hold)
				}
				release()
				lastCalib = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for c := range perClient {
		if errs[c] != nil {
			return nil, wall, errs[c]
		}
		waits = append(waits, perClient[c]...)
	}
	return waits, wall, nil
}

// driveQueue cycles requests through a serve.FairQueue held at queueDepth:
// pop a batch, push as many back with a later calibration time. It returns
// ns per request cycled (one Push plus its share of a PopBatch).
func driveQueue(cycles int) float64 {
	q := serve.NewFairQueue(queueDepth)
	settings := []core.Setting{core.Setting512, core.Setting512, core.Setting512, core.Setting416}
	clock := time.Duration(0)
	push := func(i int) {
		clock += time.Millisecond
		q.Push(serve.Request{Stream: "q", Index: i, Setting: settings[i%len(settings)], LastCalib: clock})
	}
	for i := 0; i < queueDepth; i++ {
		push(i)
	}
	cycled := 0
	start := time.Now()
	for cycled < cycles {
		batch := q.PopBatch(queueBatch)
		for _, r := range batch {
			push(r.Index)
		}
		cycled += len(batch)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(cycled)
}
