package loadharness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"scdn/internal/metrics"
)

func TestRunIssuesOnSchedule(t *testing.T) {
	var calls atomic.Uint64
	res, err := Run(context.Background(), RunConfig{
		Rate: 2000, Duration: 200 * time.Millisecond, Seed: 1,
	}, func(context.Context) error {
		calls.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != calls.Load() {
		t.Fatalf("Issued %d != calls %d", res.Issued, calls.Load())
	}
	// 2000/s for 200ms ≈ 400 arrivals; allow wide statistical slack.
	if res.Issued < 250 || res.Issued > 550 {
		t.Errorf("Issued = %d, want ~400", res.Issued)
	}
	if res.Failed != 0 {
		t.Errorf("Failed = %d, want 0", res.Failed)
	}
	if res.Hist == nil || res.Hist.Count() != res.Issued {
		t.Errorf("histogram count mismatch")
	}
	if res.AchievedRPS <= 0 {
		t.Errorf("AchievedRPS = %g, want > 0", res.AchievedRPS)
	}
}

// TestRunOpenLoopChargesQueueing is the coordinated-omission regression
// test: a server stuck at 1 concurrent request × 20ms each, offered 500
// rps through a 1-slot pool, must report p99 latencies far above the
// 20ms service time — the queueing delay belongs to the measurement. A
// closed-loop harness would report a flat ~20ms here.
func TestRunOpenLoopChargesQueueing(t *testing.T) {
	res, err := Run(context.Background(), RunConfig{
		Rate: 500, Duration: 300 * time.Millisecond, MaxConns: 1, Seed: 3,
	}, func(context.Context) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued < 100 {
		t.Fatalf("Issued = %d; open loop should keep firing past the pool bound", res.Issued)
	}
	if p99 := res.LatencyMS.P99; p99 < 100 {
		t.Errorf("p99 = %gms; queueing behind the saturated pool should dominate (want >= 100ms)", p99)
	}
}

func TestRunRecordsFailures(t *testing.T) {
	boom := errors.New("boom")
	var n atomic.Uint64
	res, err := Run(context.Background(), RunConfig{
		Rate: 1000, Duration: 100 * time.Millisecond, Seed: 5,
	}, func(context.Context) error {
		if n.Add(1)%2 == 0 {
			return boom
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Failed > res.Issued {
		t.Fatalf("Failed = %d of %d, want roughly half", res.Failed, res.Issued)
	}
	// Failures still contribute latency samples.
	if res.Hist.Count() != res.Issued {
		t.Errorf("failed requests dropped from histogram: %d != %d", res.Hist.Count(), res.Issued)
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, RunConfig{Rate: 1, Duration: time.Hour, Seed: 1},
		func(context.Context) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestRunRejectsBadRate(t *testing.T) {
	if _, err := Run(context.Background(), RunConfig{Rate: 0}, func(context.Context) error { return nil }); err == nil {
		t.Fatal("rate 0 accepted")
	}
}

func TestSweep(t *testing.T) {
	var steps int
	results, err := Sweep(context.Background(), SweepConfig{
		Rates:    []float64{200, 400, 800},
		Duration: 100 * time.Millisecond,
		Seed:     9,
		Progress: func(RateResult) { steps++ },
	}, func(context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || steps != 3 {
		t.Fatalf("got %d results, %d progress calls, want 3/3", len(results), steps)
	}
	for i, r := range results {
		if r.Issued == 0 {
			t.Errorf("step %d issued nothing", i)
		}
	}
	if _, err := Sweep(context.Background(), SweepConfig{}, func(context.Context) error { return nil }); err == nil {
		t.Error("empty rate ladder accepted")
	}
}

func TestKnee(t *testing.T) {
	mk := func(offered, achieved, p99 float64) RateResult {
		return RateResult{OfferedRPS: offered, AchievedRPS: achieved, Issued: 100,
			LatencyMS: metrics.Latency{P99: p99}}
	}
	t.Run("empty", func(t *testing.T) {
		if got := Knee(nil); got != -1 {
			t.Fatalf("Knee(nil) = %d, want -1", got)
		}
	})
	t.Run("classic curve", func(t *testing.T) {
		// Healthy at 1k and 2k, collapses at 4k (achieved stalls, p99 blows up).
		results := []RateResult{
			mk(1000, 995, 1.0),
			mk(2000, 1980, 1.8),
			mk(4000, 2100, 900),
		}
		if got := Knee(results); got != 1 {
			t.Fatalf("Knee = %d, want 1 (the 2k step)", got)
		}
	})
	t.Run("latency cliff without throughput loss", func(t *testing.T) {
		// Achieved keeps up but p99 explodes past 10× the base (and the 5ms
		// absolute floor): still past the knee.
		results := []RateResult{
			mk(1000, 995, 2.0),
			mk(2000, 1990, 400),
		}
		if got := Knee(results); got != 0 {
			t.Fatalf("Knee = %d, want 0", got)
		}
	})
	t.Run("sub-floor jitter ignored", func(t *testing.T) {
		// Base p99 60µs, next step 3ms: >10× but under the 5ms floor — not a cliff.
		results := []RateResult{
			mk(1000, 995, 0.06),
			mk(2000, 1990, 3.0),
		}
		if got := Knee(results); got != 1 {
			t.Fatalf("Knee = %d, want 1", got)
		}
	})
	t.Run("ladder started past saturation", func(t *testing.T) {
		// No step qualifies; fall back to max achieved throughput.
		results := []RateResult{
			mk(8000, 3000, 700),
			mk(16000, 3400, 1500),
		}
		if got := Knee(results); got != 1 {
			t.Fatalf("Knee = %d, want 1 (max achieved)", got)
		}
	})
}

// TestRunBytesByteAxis checks the byte-measured step: total bytes sum
// over successful requests, wall-clock MB/s reconciles with
// bytes/elapsed, and the per-request MB/s distribution is populated in
// native units.
func TestRunBytesByteAxis(t *testing.T) {
	const perReq = int64(50_000)
	res, err := RunBytes(context.Background(), RunConfig{
		Rate: 1000, Duration: 200 * time.Millisecond, Seed: 3,
	}, func(context.Context) (int64, error) {
		return perReq, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued == 0 {
		t.Fatal("no requests issued")
	}
	if want := res.Issued * uint64(perReq); res.Bytes != want {
		t.Fatalf("Bytes = %d, want %d (issued %d × %d)", res.Bytes, want, res.Issued, perReq)
	}
	if res.AchievedMBps <= 0 {
		t.Fatalf("AchievedMBps = %g, want > 0", res.AchievedMBps)
	}
	if res.RequestMBps == nil || res.RequestMBps.P50 <= 0 {
		t.Fatalf("RequestMBps = %+v, want populated distribution", res.RequestMBps)
	}
	if res.MBpsHist == nil || res.MBpsHist.Count() == 0 {
		t.Fatal("MBpsHist not carried")
	}
	// AchievedMBps is bytes over wall-clock: it can never exceed the
	// fastest per-request rate times concurrency, and for instant
	// requests it lands near offered-rate × perReq / 1e6 = 50 MB/s.
	if res.AchievedMBps < 10 || res.AchievedMBps > 200 {
		t.Errorf("AchievedMBps = %g, want ~50", res.AchievedMBps)
	}
}

// TestRunBytesFailuresCarryNoBytes: failed requests count in Failed and
// latency but contribute nothing to the byte axis.
func TestRunBytesFailuresCarryNoBytes(t *testing.T) {
	res, err := RunBytes(context.Background(), RunConfig{
		Rate: 500, Duration: 100 * time.Millisecond, Seed: 4,
	}, func(context.Context) (int64, error) {
		return 0, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != res.Issued || res.Issued == 0 {
		t.Fatalf("Failed = %d, Issued = %d, want all failed", res.Failed, res.Issued)
	}
	if res.Bytes != 0 || res.AchievedMBps != 0 || res.RequestMBps != nil {
		t.Fatalf("failed run leaked a byte axis: %+v", res)
	}
	if res.AchievedRPS != 0 {
		t.Errorf("AchievedRPS = %g with all requests failed, want 0", res.AchievedRPS)
	}
}

// TestRunDropsByteAxis: the request-only wrapper must not report bytes
// even though it rides RunBytes internally.
func TestRunDropsByteAxis(t *testing.T) {
	res, err := Run(context.Background(), RunConfig{
		Rate: 500, Duration: 100 * time.Millisecond, Seed: 5,
	}, func(context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 0 || res.AchievedMBps != 0 || res.RequestMBps != nil || res.MBpsHist != nil {
		t.Fatalf("request-only run carries a byte axis: %+v", res)
	}
}
