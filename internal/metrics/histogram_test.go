package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestHistQuantileAccuracy(t *testing.T) {
	var h Histogram
	// 1..10000 µs uniformly: quantiles are known exactly.
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i) * 1e-6)
	}
	if got := h.Count(); got != 10000 {
		t.Fatalf("Count = %d, want 10000", got)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5000e-6},
		{0.95, 9500e-6},
		{0.99, 9900e-6},
	} {
		got := h.Quantile(tc.q)
		// Bucket geometry promises ~4.4% relative error, never understating
		// beyond one bucket width.
		if got < tc.want*0.95 || got > tc.want*1.10 {
			t.Errorf("Quantile(%g) = %g, want within 5%%/10%% of %g", tc.q, got, tc.want)
		}
	}
	if got, want := h.Mean(), 5000.5e-6; math.Abs(got-want)/want > 0.01 {
		t.Errorf("Mean = %g, want ~%g", got, want)
	}
	if got := h.Max(); got != 10000e-6 {
		t.Errorf("Max = %g, want %g", got, 10000e-6)
	}
}

func TestHistEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}
	if got := h.Mean(); got != 0 {
		t.Errorf("empty Mean = %g, want 0", got)
	}
	h.Observe(-5)         // clock step: clamps to 0, no panic
	h.Observe(math.NaN()) // defensive: clamps to 0
	h.Observe(1e12)       // far past the last octave: overflow bucket
	if got := h.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	// The overflow bucket reports the tracked max, not the bucket bound.
	if got := h.Quantile(1); got != 1e12 {
		t.Errorf("Quantile(1) = %g, want 1e12 (tracked max)", got)
	}
	if got := h.Quantile(-1); got != histMin {
		t.Errorf("Quantile(-1) = %g, want clamp to first bucket %g", got, histMin)
	}

	// A single sample reports itself at every q: its bucket's upper bound
	// is capped at the max, which is the sample.
	var one Histogram
	one.Observe(0.0123)
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := one.Quantile(q); got != 0.0123 {
			t.Errorf("single sample: Quantile(%g) = %g, want 0.0123", q, got)
		}
	}

	// All-zero samples report 0, not the first bucket's bound.
	var zeros Histogram
	for i := 0; i < 10; i++ {
		zeros.Observe(0)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := zeros.Quantile(q); got != 0 {
			t.Errorf("all-zero: Quantile(%g) = %g, want 0", q, got)
		}
	}
}

func TestHistQuantileNeverUnderstates(t *testing.T) {
	var h Histogram
	samples := []float64{0.0001, 0.0005, 0.003, 0.003, 0.020, 0.150}
	for _, s := range samples {
		h.Observe(s)
	}
	// p100 must cover the max exactly; lower quantiles must be >= the true
	// order statistic (bucket upper bound semantics).
	if got := h.Quantile(1); got < 0.150 {
		t.Errorf("Quantile(1) = %g understates max 0.150", got)
	}
	if got := h.Quantile(0.5); got < 0.0005 {
		t.Errorf("Quantile(0.5) = %g understates true p50 0.003's lower neighbor", got)
	}
}

func TestHistConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*per+i) * 1e-6)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("Count = %d, want %d", got, goroutines*per)
	}
	var sum uint64
	for i := range h.buckets {
		sum += h.buckets[i].Load()
	}
	if sum != goroutines*per {
		t.Fatalf("bucket sum = %d, want %d", sum, goroutines*per)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 100; i++ {
		a.Observe(float64(i) * 1e-6)
	}
	b.Observe(0.5)
	a.Merge(&b)
	if got := a.Count(); got != 101 {
		t.Fatalf("merged Count = %d, want 101", got)
	}
	if got := a.Max(); got != 0.5 {
		t.Errorf("merged Max = %g, want 0.5", got)
	}
}

func TestLatencyMS(t *testing.T) {
	var h Histogram
	h.Observe(0.010) // 10ms
	l := h.LatencyMS()
	if l.P99 < 10 || l.P99 > 11 {
		t.Errorf("P99 = %gms, want ~10ms", l.P99)
	}
	if l.Max != 10 {
		t.Errorf("Max = %gms, want 10ms", l.Max)
	}
	if s := l.String(); s == "" {
		t.Error("String() empty")
	}
}

// TestHistDigestNativeUnits: Digest must summarize in the histogram's
// own units (MB/s for byte-rate hists), 1000× smaller than LatencyMS's
// millisecond scaling of the same buckets.
func TestHistDigestNativeUnits(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(2.0) // e.g. 2 MB/s per request
	}
	d := h.Digest()
	if d.P50 < 1.9 || d.P50 > 2.2 {
		t.Fatalf("native p50 = %g, want ~2", d.P50)
	}
	ms := h.LatencyMS()
	if got := ms.P50 / d.P50; got < 999 || got > 1001 {
		t.Fatalf("LatencyMS/Digest ratio = %g, want 1000", got)
	}
	if d.Max != h.Max() || d.Mean != h.Mean() {
		t.Fatalf("digest mean/max diverge from accessors: %+v", d)
	}
}
