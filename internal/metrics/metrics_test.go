package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %v, want 7", g.Value())
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", h.Mean())
	}
	// Quantiles are bucket upper bounds: at or above the true order
	// statistic, within one bucket width (~4.4%) of it.
	within := func(got, want float64) bool { return got >= want && got <= want*1.045 }
	if q := h.Quantile(0.5); !within(q, 4) {
		t.Fatalf("p50 = %v, want 4 within one bucket", q)
	}
	if q := h.Quantile(1); q != h.Max() || q != 9 {
		t.Fatalf("p100 = %v, want max 9", q)
	}
	if q := h.Quantile(0); !within(q, 2) {
		t.Fatalf("p0 = %v, want 2 within one bucket", q)
	}
	if q := h.Quantile(-1); !within(q, 2) {
		t.Fatalf("clamped q = %v, want 2 within one bucket", q)
	}
}

func TestCDNReliability(t *testing.T) {
	var m CDNMetrics
	if m.Reliability() != 1 {
		t.Fatal("idle reliability should be 1")
	}
	m.RequestsServed.Add(8)
	m.RequestsFailed.Add(2)
	m.ReplicaUnavailable.Add(1)
	if r := m.Reliability(); math.Abs(r-0.9) > 1e-12 {
		t.Fatalf("reliability = %v, want 0.9", r)
	}
}

func TestCDNHitRatio(t *testing.T) {
	var m CDNMetrics
	if m.HitRatio() != 0 {
		t.Fatal("idle hit ratio should be 0")
	}
	m.RequestsServed.Add(10)
	m.LocalHits.Add(3)
	m.ReplicaHits.Add(5)
	m.OriginFetches.Add(2)
	if r := m.HitRatio(); math.Abs(r-0.8) > 1e-12 {
		t.Fatalf("hit ratio = %v, want 0.8", r)
	}
}

func TestSocialAcceptanceAndSuccess(t *testing.T) {
	s := NewSocialMetrics()
	if s.AcceptanceRate() != 1 || s.SuccessRatio() != 1 {
		t.Fatal("idle rates should be 1")
	}
	s.StorageRequests.Add(4)
	s.StorageAccepts.Add(3)
	if r := s.AcceptanceRate(); r != 0.75 {
		t.Fatalf("acceptance = %v", r)
	}
	s.SuccessfulExchanges.Add(9)
	s.FailedExchanges.Add(1)
	if r := s.SuccessRatio(); r != 0.9 {
		t.Fatalf("success = %v", r)
	}
}

func TestFreeRiderRatio(t *testing.T) {
	s := NewSocialMetrics()
	if s.FreeRiderRatio(1) != 0 {
		t.Fatal("no users → ratio 0")
	}
	s.RecordContribution(1, 0, 100) // contributor
	s.RecordConsumption(1, 50)
	s.RecordConsumption(2, 70)     // free rider
	s.RecordContribution(3, 1, 10) // contributes, never consumes
	if r := s.FreeRiderRatio(1); math.Abs(r-1.0/3.0) > 1e-12 {
		t.Fatalf("free-rider ratio = %v, want 1/3", r)
	}
	// Raising the bar makes user 3's contribution insufficient, but user 3
	// never consumed, so the ratio is unchanged.
	if r := s.FreeRiderRatio(20); math.Abs(r-1.0/3.0) > 1e-12 {
		t.Fatalf("free-rider ratio = %v, want 1/3", r)
	}
}

func TestAllocationRatio(t *testing.T) {
	s := NewSocialMetrics()
	if s.AllocationRatio() != 0 {
		t.Fatal("no contribution → 0")
	}
	s.RecordContribution(1, 0, 1000)
	s.AllocatedBytes.Set(250)
	if r := s.AllocationRatio(); r != 0.25 {
		t.Fatalf("allocation ratio = %v", r)
	}
}

func TestScarcityRatio(t *testing.T) {
	s := NewSocialMetrics()
	if s.ScarcityRatio() != 0 {
		t.Fatal("no sites → 0")
	}
	s.RecordContribution(1, 0, 1000)
	s.RecordContribution(2, 1, 1000)
	s.RecordContribution(3, 2, 10) // scarce: 10 < mean(670)/2
	if r := s.ScarcityRatio(); math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("scarcity = %v, want 0.5 (1 scarce : 2 abundant)", r)
	}
}

func TestReportContainsAllSections(t *testing.T) {
	var cdn CDNMetrics
	cdn.RequestsServed.Add(5)
	cdn.ResponseTime.Observe(1.5)
	social := NewSocialMetrics()
	social.Exchanges.Add(2)
	var sb strings.Builder
	if err := Report(&sb, &cdn, social, time.Hour); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"CDN metrics", "hit ratio", "response time", "availability",
		"reliability", "redundancy", "stability",
		"Social metrics", "acceptance rate", "data exchanges",
		"immediacy", "free-rider", "transaction volume", "scarce:abundant",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// Property: histogram quantiles are monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		min, max := float64(raw[0]), float64(raw[0])
		for _, v := range raw {
			fv := float64(v)
			h.Observe(fv)
			if fv < min {
				min = fv
			}
			if fv > max {
				max = fv
			}
		}
		prev := min
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev-1e-9 || v < min || v > max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
