package loadharness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scdn/internal/metrics"
)

func TestCurrentHost(t *testing.T) {
	h := CurrentHost()
	if h.GOMAXPROCS < 1 || h.NumCPU < 1 || !strings.HasPrefix(h.GoVersion, "go") {
		t.Fatalf("implausible host info: %+v", h)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_delivery.json")
	rec := &DeliveryRecord{
		SchemaVersion: SchemaVersion,
		Host:          CurrentHost(),
		Mode:          "open-loop",
		Requests:      1200,
		PayloadMode:   "dir",
		LatencyMS:     metrics.Latency{Mean: 0.4, P50: 0.3, P95: 0.9, P99: 1.2, Max: 4},
		Reconciled:    true,
		OpenLoop: &OpenLoop{
			Distribution: DistExponential, DurationSeconds: 1, MaxConns: 64,
			Rates: []RateResult{{OfferedRPS: 1000, AchievedRPS: 990, Issued: 990}},
			Knee:  &KneePoint{OfferedRPS: 1000, AchievedRPS: 990, P99MS: 1.2},
		},
	}
	if err := WriteRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDeliveryRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || got.OpenLoop == nil || got.OpenLoop.Knee == nil {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.OpenLoop.Knee.AchievedRPS != 990 {
		t.Fatalf("knee achieved = %g, want 990", got.OpenLoop.Knee.AchievedRPS)
	}
}

// TestReadDeliveryRecordRetiredCacheKeys: checked-in v2 baselines were
// written while records still carried the payload block cache's
// counters. They must stay readable, so scdn-perfgate can ratchet
// against them; the retired keys are ignored.
func TestReadDeliveryRecordRetiredCacheKeys(t *testing.T) {
	const baseline = `{
  "schema_version": 2,
  "host": {"gomaxprocs": 1, "num_cpu": 1, "go_version": "go1.24.0"},
  "mode": "open-loop",
  "requests": 6032,
  "edges": 3,
  "datasets": 8,
  "bytes_per_dataset": 65536,
  "payload_mode": "dir",
  "elapsed_seconds": 8.589640428,
  "throughput_rps": 406.57960015411817,
  "throughput_mbps": 43.890079353156366,
  "latency_ms": {"mean": 2.83, "p50": 1.38, "p95": 6.31, "p99": 46.34, "max": 72.58},
  "failed": 0,
  "payload_cache_hits": 0,
  "payload_cache_misses": 0,
  "payload_cache_hit_rate": 0,
  "range_requests": 0,
  "reconciled": true,
  "open_loop": {
    "distribution": "exp",
    "duration_seconds": 2,
    "max_conns": 64,
    "rates": [{"offered_rps": 400, "achieved_rps": 406.57960015411817, "issued": 813, "failed": 0,
      "latency_ms": {"mean": 1.21, "p50": 1.16, "p95": 2.048, "p99": 3.0245399468840946, "max": 5.12}}],
    "knee": {"offered_rps": 400, "achieved_rps": 406.57960015411817, "p99_ms": 3.0245399468840946}
  }
}`
	path := filepath.Join(t.TempDir(), "BENCH_delivery.json")
	if err := os.WriteFile(path, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDeliveryRecord(path)
	if err != nil {
		t.Fatalf("record with retired payload_cache_* keys rejected: %v", err)
	}
	if got.SchemaVersion != 2 || got.PayloadMode != "dir" || !got.Reconciled {
		t.Fatalf("decoded record lost fields: %+v", got)
	}
	if got.OpenLoop == nil || got.OpenLoop.Knee == nil || got.OpenLoop.Knee.AchievedRPS != 406.57960015411817 {
		t.Fatalf("decoded record lost its knee: %+v", got.OpenLoop)
	}
	if err := CompareDelivery(got, got, GateOptions{}); err != nil {
		t.Fatalf("decoded baseline does not gate against itself: %v", err)
	}
}

func TestReadDeliveryRecordErrors(t *testing.T) {
	if _, err := ReadDeliveryRecord(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := WriteRecord(bad, "not an object"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDeliveryRecord(bad); err == nil {
		t.Error("malformed record accepted")
	}
}

func TestNewOpenLoopComputesKnee(t *testing.T) {
	cfg := SweepConfig{Rates: []float64{100, 200}, Duration: time.Second, MaxConns: 8}
	results := []RateResult{
		{OfferedRPS: 100, AchievedRPS: 99, Issued: 99, LatencyMS: metrics.Latency{P99: 1}},
		{OfferedRPS: 200, AchievedRPS: 198, Issued: 198, LatencyMS: metrics.Latency{P99: 1.5}},
	}
	ol := NewOpenLoop(cfg, results)
	if ol.Knee == nil || ol.Knee.OfferedRPS != 200 {
		t.Fatalf("knee = %+v, want the 200 rps step", ol.Knee)
	}
	if ol.Distribution != DistExponential || ol.MaxConns != 8 {
		t.Fatalf("config not carried: %+v", ol)
	}
}

func healthyRecord(kneeRPS, kneeP99 float64) *DeliveryRecord {
	return &DeliveryRecord{
		SchemaVersion: SchemaVersion,
		Reconciled:    true,
		OpenLoop: &OpenLoop{
			Knee: &KneePoint{OfferedRPS: kneeRPS, AchievedRPS: kneeRPS, P99MS: kneeP99},
		},
	}
}

// TestCompareDeliveryRatchet is the acceptance-criteria gate test: the
// comparison must pass a healthy candidate against the baseline and
// demonstrably fail a doctored regression record.
func TestCompareDeliveryRatchet(t *testing.T) {
	baseline := healthyRecord(10000, 40)

	t.Run("healthy candidate passes", func(t *testing.T) {
		if err := CompareDelivery(baseline, healthyRecord(9500, 45), GateOptions{}); err != nil {
			t.Fatalf("healthy candidate rejected: %v", err)
		}
	})
	t.Run("doctored throughput regression fails", func(t *testing.T) {
		// Knee at 30% of baseline: past the default 50% tolerance band.
		err := CompareDelivery(baseline, healthyRecord(3000, 40), GateOptions{})
		if err == nil || !strings.Contains(err.Error(), "knee throughput regressed") {
			t.Fatalf("doctored throughput record passed the gate: %v", err)
		}
	})
	t.Run("doctored p99 regression fails", func(t *testing.T) {
		err := CompareDelivery(baseline, healthyRecord(10000, 500), GateOptions{})
		if err == nil || !strings.Contains(err.Error(), "knee p99 regressed") {
			t.Fatalf("doctored p99 record passed the gate: %v", err)
		}
	})
	t.Run("p99 floor absorbs loopback jitter", func(t *testing.T) {
		// Baseline p99 0.5ms, candidate 20ms: 40× inflation but below the
		// 25ms absolute floor — shared-runner noise, not a regression.
		if err := CompareDelivery(healthyRecord(10000, 0.5), healthyRecord(10000, 20), GateOptions{}); err != nil {
			t.Fatalf("sub-floor p99 rejected: %v", err)
		}
	})
	t.Run("failed requests fail the gate", func(t *testing.T) {
		cand := healthyRecord(10000, 40)
		cand.Failed = 3
		if err := CompareDelivery(baseline, cand, GateOptions{}); err == nil {
			t.Fatal("candidate with failures passed")
		}
	})
	t.Run("unreconciled candidate fails", func(t *testing.T) {
		cand := healthyRecord(10000, 40)
		cand.Reconciled = false
		if err := CompareDelivery(baseline, cand, GateOptions{}); err == nil {
			t.Fatal("unreconciled candidate passed")
		}
	})
	t.Run("candidate without knee fails", func(t *testing.T) {
		cand := healthyRecord(10000, 40)
		cand.OpenLoop = nil
		if err := CompareDelivery(baseline, cand, GateOptions{}); err == nil {
			t.Fatal("knee-less candidate passed")
		}
	})
	t.Run("pre-ratchet baseline only checks health", func(t *testing.T) {
		old := &DeliveryRecord{Reconciled: true} // schema v1: no open_loop
		if err := CompareDelivery(old, healthyRecord(100, 1), GateOptions{}); err != nil {
			t.Fatalf("v1 baseline should not anchor a ratchet: %v", err)
		}
	})
	t.Run("custom tolerance", func(t *testing.T) {
		// 20% tolerance: a 25% drop fails.
		err := CompareDelivery(baseline, healthyRecord(7500, 40), GateOptions{Tolerance: 0.2})
		if err == nil {
			t.Fatal("25% drop passed a 20% tolerance")
		}
	})
}

func TestHostMismatch(t *testing.T) {
	a := Host{GOMAXPROCS: 1, NumCPU: 1, GoVersion: "go1.24"}
	if diff := HostMismatch(a, a); diff != "" {
		t.Fatalf("identical hosts reported a mismatch: %q", diff)
	}
	// Go version alone is a mismatch: another runtime is another
	// experiment.
	b := a
	b.GoVersion = "go1.25"
	if diff := HostMismatch(a, b); diff != "Go go1.24 vs go1.25" {
		t.Fatalf("go-version-only difference = %q, want it named", diff)
	}
	b = Host{GOMAXPROCS: 16, NumCPU: 32, GoVersion: "go1.24"}
	diff := HostMismatch(a, b)
	if !strings.Contains(diff, "GOMAXPROCS 1 vs 16") || !strings.Contains(diff, "NumCPU 1 vs 32") {
		t.Fatalf("mismatch description incomplete: %q", diff)
	}
}

func healthyLargeRecord(mbps float64) *LargeRecord {
	return &LargeRecord{
		SchemaVersion:   SchemaVersion,
		Host:            CurrentHost(),
		Mode:            "open-loop",
		SustainedMBps:   mbps,
		SegmentedServes: 40,
		SegmentFetches:  12,
		Reconciled:      true,
		OpenLoop: &OpenLoop{
			Knee: &KneePoint{OfferedRPS: 8, AchievedRPS: 8, P99MS: 30},
		},
	}
}

func TestLargeRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_large.json")
	rec := healthyLargeRecord(120)
	rec.Mix = LargeMix{Whole: 10, Ranged: 25, SegmentWalk: 15}
	rec.SegmentSize = 4 << 20
	rec.BytesPerDataset = 256 << 20
	if err := WriteRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLargeRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SustainedMBps != 120 || got.Mix.Ranged != 25 || got.SegmentSize != 4<<20 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.OpenLoop == nil || got.OpenLoop.Knee == nil {
		t.Fatal("round trip lost the open-loop knee")
	}
	if _, err := ReadLargeRecord(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing large record accepted")
	}
}

// TestCompareLargeRatchet is the byte axis's gate test, mirror of
// TestCompareDeliveryRatchet: healthy candidates pass, doctored
// byte-throughput regressions and unhealthy records demonstrably fail.
func TestCompareLargeRatchet(t *testing.T) {
	baseline := healthyLargeRecord(100)

	t.Run("healthy candidate passes", func(t *testing.T) {
		if err := CompareLarge(baseline, healthyLargeRecord(90), GateOptions{}); err != nil {
			t.Fatalf("healthy candidate rejected: %v", err)
		}
	})
	t.Run("doctored byte-throughput regression fails", func(t *testing.T) {
		err := CompareLarge(baseline, healthyLargeRecord(30), GateOptions{})
		if err == nil || !strings.Contains(err.Error(), "byte throughput regressed") {
			t.Fatalf("doctored byte record passed the gate: %v", err)
		}
	})
	t.Run("no baseline starts the ratchet", func(t *testing.T) {
		if err := CompareLarge(nil, healthyLargeRecord(5), GateOptions{}); err != nil {
			t.Fatalf("first record rejected: %v", err)
		}
	})
	t.Run("candidate off the segmented path fails", func(t *testing.T) {
		cand := healthyLargeRecord(100)
		cand.SegmentedServes, cand.SegmentFetches = 0, 0
		err := CompareLarge(baseline, cand, GateOptions{})
		if err == nil || !strings.Contains(err.Error(), "segmented path") {
			t.Fatalf("whole-file-path candidate passed the byte gate: %v", err)
		}
	})
	t.Run("segment-endpoint-only candidate passes", func(t *testing.T) {
		cand := healthyLargeRecord(100)
		cand.SegmentedServes = 0 // all traffic via /segments/{n}
		if err := CompareLarge(baseline, cand, GateOptions{}); err != nil {
			t.Fatalf("segment-endpoint candidate rejected: %v", err)
		}
	})
	t.Run("failed requests fail the gate", func(t *testing.T) {
		cand := healthyLargeRecord(100)
		cand.Failed = 1
		if err := CompareLarge(baseline, cand, GateOptions{}); err == nil {
			t.Fatal("candidate with failures passed")
		}
	})
	t.Run("unreconciled candidate fails", func(t *testing.T) {
		cand := healthyLargeRecord(100)
		cand.Reconciled = false
		if err := CompareLarge(baseline, cand, GateOptions{}); err == nil {
			t.Fatal("unreconciled candidate passed")
		}
	})
	t.Run("candidate without knee fails", func(t *testing.T) {
		cand := healthyLargeRecord(100)
		cand.OpenLoop = nil
		if err := CompareLarge(baseline, cand, GateOptions{}); err == nil {
			t.Fatal("knee-less candidate passed")
		}
	})
	t.Run("zero sustained throughput fails", func(t *testing.T) {
		if err := CompareLarge(nil, healthyLargeRecord(0), GateOptions{}); err == nil {
			t.Fatal("0 MB/s candidate passed")
		}
	})
	t.Run("custom tolerance", func(t *testing.T) {
		err := CompareLarge(baseline, healthyLargeRecord(75), GateOptions{Tolerance: 0.2})
		if err == nil {
			t.Fatal("25% drop passed a 20% tolerance")
		}
	})
}
