package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", L("k", "v"))
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", L("k", "v")); again != c {
		t.Error("same series returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}

	h := r.Histogram("h", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 0.5, 10} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("hist count = %d, want 4", got)
	}
	if got := h.Sum(); got != 11.05 {
		t.Errorf("hist sum = %v, want 11.05", got)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms, want 1", len(snap.Histograms))
	}
	counts := snap.Histograms[0].Counts
	want := []int64{1, 2, 1} // ≤0.1, ≤1, +Inf
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edges", []float64{1, 2})
	h.Observe(1) // exactly on a bound belongs to that bucket (le semantics)
	h.Observe(2)
	snap := r.Snapshot()
	counts := snap.Histograms[0].Counts
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 0 {
		t.Errorf("edge counts = %v, want [1 1 0]", counts)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every call on a nil registry (and the nil instruments it returns)
	// must be a no-op, not a panic.
	r.Counter("c").Inc()
	r.Counter("c").Add(3)
	_ = r.Counter("c").Value()
	r.Gauge("g").Set(1)
	_ = r.Gauge("g").Value()
	r.Histogram("h", DefLatencyBuckets).Observe(1)
	r.StageHistogram(StageDetect).ObserveDuration(time.Second)
	_ = r.Histogram("h", nil).Count()
	_ = r.Histogram("h", nil).Sum()
	r.Record(0, "c", "k", "a")
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Events) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestJournalWraparound(t *testing.T) {
	r := NewRegistry()
	r.journal.cap = 4
	for i := 0; i < 10; i++ {
		r.Record(time.Duration(i), "comp", strconv.Itoa(i), "act")
	}
	evs := r.Snapshot().Events
	if len(evs) != 4 {
		t.Fatalf("journal kept %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(7 + i) // seqs are 1-based; the oldest retained is the 7th event
		if ev.Seq != wantSeq {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if wantKind := strconv.Itoa(6 + i); ev.Kind != wantKind {
			t.Errorf("event %d kind = %q, want %q", i, ev.Kind, wantKind)
		}
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(order []string) []byte {
		r := NewRegistry()
		for _, name := range order {
			r.Counter("n_total", L("s", name)).Inc()
			r.Gauge("g_" + name).Set(1)
			r.Histogram("h_total", nil, L("s", name)).Observe(1)
		}
		var buf bytes.Buffer
		if err := r.Snapshot().WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := build([]string{"a", "b", "c"})
	b := build([]string{"c", "a", "b"})
	if !bytes.Equal(a, b) {
		t.Errorf("snapshot depends on creation order:\n%s\nvs\n%s", a, b)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("c_total", L("a", "1"), L("b", "2"))
	c2 := r.Counter("c_total", L("b", "2"), L("a", "1"))
	if c1 != c2 {
		t.Error("label order created two series")
	}
}

// TestSafeFloatMatchesEncodingJSON pins appendJSONFloat to encoding/json's
// byte format for finite values — the property the JSON round-trip fuzz
// relies on.
func TestSafeFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, -0.0, 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 9.999999e20, 1e21, -1e21,
		1e-300, 1e300, 123456.789, math.MaxFloat64, math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, 1.0 / 3.0,
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONFloat(nil, v)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%g) = %s, want %s", v, got, want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := appendJSONFloat(nil, v)
		back, err := parseJSONFloat(b)
		if err != nil {
			t.Fatalf("parseJSONFloat(%s): %v", b, err)
		}
		if !math.IsNaN(v) && back != v || math.IsNaN(v) && !math.IsNaN(back) {
			t.Errorf("round trip of %v came back %v", v, back)
		}
	}
}
