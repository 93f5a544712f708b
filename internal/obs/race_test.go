package obs

import (
	"io"
	"sync"
	"testing"
	"time"

	"adavp/internal/par"
)

// bandFunc adapts a func to a par.Band, for the references that build their
// bands in place.
type bandFunc func(lo, hi int)

func (f bandFunc) Rows(lo, hi int) { f(lo, hi) }

// TestRegistryConcurrentStress hammers one registry from par.Rows worker
// bands — the same pool the pixel kernels run on — while another goroutine
// snapshots and serializes continuously. Run under -race (make race) this
// checks the lock-free update paths and the snapshot's consistency
// guarantees; at any moment a histogram's count must be at least the
// cumulative bucket total already visible.
func TestRegistryConcurrentStress(t *testing.T) {
	r := NewRegistry()
	stages := []string{StageDetect, StageTrack, StageOverlay, StageAdapt}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			for _, h := range snap.Histograms {
				var cum int64
				for _, c := range h.Counts {
					cum += c
				}
				// A snapshot racing writers may see count and buckets a few
				// observations apart (one in-flight Observe per writer), but
				// never more than the worker count.
				if diff := cum - h.Count; diff < -1024 || diff > 1024 {
					t.Errorf("histogram %s wildly inconsistent: buckets %d vs count %d", h.Name, cum, h.Count)
					return
				}
			}
			if err := snap.WriteProm(io.Discard); err != nil {
				t.Errorf("WriteProm: %v", err)
				return
			}
		}
	}()

	const rounds = 200
	for round := 0; round < rounds; round++ {
		par.Rows(64, bandFunc(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				stage := stages[i%len(stages)]
				r.StageHistogram(stage).ObserveDuration(time.Duration(i+1) * time.Millisecond)
				r.Counter(MetricFrames, L("source", "tracker")).Inc()
				r.Gauge(MetricVelocity).Set(float64(i))
				r.Record(time.Duration(i), "comp", "kind", "action")
			}
		}))
	}
	close(stop)
	wg.Wait()

	snap := r.Snapshot()
	wantObs := int64(rounds * 64)
	if got := snap.Counters[0].Value; got != wantObs {
		t.Errorf("frames counter = %d, want %d", got, wantObs)
	}
	var total int64
	for _, h := range snap.Histograms {
		total += h.Count
	}
	if total != wantObs {
		t.Errorf("histogram observations = %d, want %d", total, wantObs)
	}
	if len(snap.Events) != DefJournalCap {
		t.Errorf("journal kept %d events, want cap %d", len(snap.Events), DefJournalCap)
	}
}
