package adapt

import (
	"testing"

	"adavp/internal/core"
	"adavp/internal/rng"
)

func TestThresholdsDecide(t *testing.T) {
	th := Thresholds{1, 2, 3}
	cases := []struct {
		v    float64
		want core.Setting
	}{
		{0, core.Setting608},
		{1, core.Setting608},
		{1.5, core.Setting512},
		{2, core.Setting512},
		{2.5, core.Setting416},
		{3, core.Setting416},
		{3.01, core.Setting320},
		{100, core.Setting320},
	}
	for _, c := range cases {
		if got := th.Decide(c.v); got != c.want {
			t.Errorf("Decide(%f) = %v, want %v", c.v, got, c.want)
		}
	}
}

// valid reports whether th is ascending and non-negative, the shape
// DefaultModel and Train promise.
func valid(th Thresholds) bool {
	return th[0] >= 0 && th[0] <= th[1] && th[1] <= th[2]
}

func TestDefaultModelComplete(t *testing.T) {
	m := DefaultModel()
	for _, s := range core.AdaptiveSettings {
		th, ok := m.PerSetting[s]
		if !ok {
			t.Fatalf("no thresholds for %v", s)
		}
		if !valid(th) {
			t.Fatalf("%v thresholds invalid: %v", s, th)
		}
	}
}

func TestNextSlowContentPicksLargeModel(t *testing.T) {
	m := DefaultModel()
	if got := m.Next(core.Setting512, 0.01); got != core.Setting608 {
		t.Errorf("slow content -> %v, want 608", got)
	}
	if got := m.Next(core.Setting512, 50); got != core.Setting320 {
		t.Errorf("fast content -> %v, want 320", got)
	}
}

func TestNextUnknownSettingFallsBack(t *testing.T) {
	m := DefaultModel()
	if got := m.Next(core.SettingTiny320, 0.01); got != core.Setting608 {
		t.Errorf("unknown current setting -> %v", got)
	}
	empty := &Model{PerSetting: map[core.Setting]Thresholds{}}
	if got := empty.Next(core.Setting512, 1); got != core.Setting512 {
		t.Errorf("empty model -> %v, want 512", got)
	}
}

// makeSamples builds samples with perfectly separable velocity bands.
func makeSamples(cur core.Setting, n int, seed uint64) []Sample {
	s := rng.New(seed)
	out := make([]Sample, 0, 4*n)
	bands := []struct {
		lo, hi float64
		best   core.Setting
	}{
		{0, 1, core.Setting608},
		{1.1, 2, core.Setting512},
		{2.1, 3, core.Setting416},
		{3.1, 6, core.Setting320},
	}
	for _, b := range bands {
		for i := 0; i < n; i++ {
			out = append(out, Sample{Current: cur, Velocity: s.Range(b.lo, b.hi), Best: b.best})
		}
	}
	return out
}

func TestTrainSeparableData(t *testing.T) {
	samples := makeSamples(core.Setting512, 50, 3)
	m, err := Train(samples)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	th := m.PerSetting[core.Setting512]
	if !valid(th) {
		t.Fatalf("invalid thresholds %v", th)
	}
	// Every training sample must be classified correctly (data is separable).
	for _, s := range samples {
		if got := th.Decide(s.Velocity); got != s.Best {
			t.Fatalf("velocity %.2f -> %v, want %v (thresholds %v)", s.Velocity, got, s.Best, th)
		}
	}
	// Thresholds fall inside the gaps.
	if th[0] < 1 || th[0] > 1.1 {
		t.Errorf("v1 = %f, want in [1, 1.1]", th[0])
	}
	if th[1] < 2 || th[1] > 2.1 {
		t.Errorf("v2 = %f, want in [2, 2.1]", th[1])
	}
	if th[2] < 3 || th[2] > 3.1 {
		t.Errorf("v3 = %f, want in [3, 3.1]", th[2])
	}
}

func TestTrainNoisyDataStillOrdered(t *testing.T) {
	s := rng.New(7)
	var samples []Sample
	for i := 0; i < 500; i++ {
		v := s.Range(0, 5)
		// Noisy labels: mostly follow the velocity bands, 20% random.
		best := (Thresholds{1.2, 2.4, 3.6}).Decide(v)
		if s.Bool(0.2) {
			best = core.AdaptiveSettings[s.Intn(4)]
		}
		samples = append(samples, Sample{Current: core.Setting608, Velocity: v, Best: best})
	}
	m, err := Train(samples)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	th := m.PerSetting[core.Setting608]
	if !valid(th) {
		t.Fatalf("invalid thresholds %v", th)
	}
	// Recovered thresholds must be near the generating ones.
	want := Thresholds{1.2, 2.4, 3.6}
	for i := range th {
		if diff := th[i] - want[i]; diff < -0.5 || diff > 0.5 {
			t.Errorf("threshold %d = %f, want ~%f", i, th[i], want[i])
		}
	}
}

func TestTrainPerSettingIndependent(t *testing.T) {
	samples := append(makeSamples(core.Setting320, 20, 1), makeSamples(core.Setting608, 20, 2)...)
	m, err := Train(samples)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(m.PerSetting) != 2 {
		t.Fatalf("trained %d settings, want 2", len(m.PerSetting))
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("empty training set should fail")
	}
	bad := []Sample{{Current: core.Setting(99), Velocity: 1, Best: core.Setting320}}
	if _, err := Train(bad); err == nil {
		t.Error("invalid sample should fail")
	}
	bad2 := []Sample{{Current: core.Setting320, Velocity: 1, Best: core.SettingInvalid}}
	if _, err := Train(bad2); err == nil {
		t.Error("invalid best should fail")
	}
}

func TestTrainDegenerateOneClass(t *testing.T) {
	// All chunks prefer 608 (a very slow dataset): thresholds collapse so
	// that everything maps to 608.
	var samples []Sample
	s := rng.New(9)
	for i := 0; i < 50; i++ {
		samples = append(samples, Sample{Current: core.Setting512, Velocity: s.Range(0, 2), Best: core.Setting608})
	}
	m, err := Train(samples)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	th := m.PerSetting[core.Setting512]
	for _, smp := range samples {
		if got := th.Decide(smp.Velocity); got != core.Setting608 {
			t.Fatalf("velocity %.2f -> %v, want 608 (thresholds %v)", smp.Velocity, got, th)
		}
	}
}

func TestTrainSingleSample(t *testing.T) {
	m, err := Train([]Sample{{Current: core.Setting512, Velocity: 1, Best: core.Setting320}})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	th := m.PerSetting[core.Setting512]
	if got := th.Decide(1); got != core.Setting320 {
		t.Errorf("single sample misclassified: %v (thresholds %v)", got, th)
	}
}

func BenchmarkTrain2000(b *testing.B) {
	samples := makeSamples(core.Setting512, 500, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(samples); err != nil {
			b.Fatal(err)
		}
	}
}
