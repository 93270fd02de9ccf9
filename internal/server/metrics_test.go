package server

import (
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLatencyHistBoundedMemory pins the north star's bounded-memory
// invariant for the serving plane's latency histograms: a million
// observations must not grow the live heap (a raw-sample histogram
// grows by 8 bytes per sample).
func TestLatencyHistBoundedMemory(t *testing.T) {
	m := &Metrics{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 1_000_000; i++ {
		m.FetchLatency.Observe(float64(i%5000) * 1e-6)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := m.FetchLatency.Count(); got != 1_000_000 {
		t.Fatalf("count = %d, want 1000000", got)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("heap grew %d bytes over 1e6 observations, want < 1 MiB", grew)
	}
	runtime.KeepAlive(m)
}

// TestLatencyHistConcurrent races observations against the /metrics
// scrape path; under -race it is the regression test for the lock-free
// histogram every serving goroutine shares.
func TestLatencyHistConcurrent(t *testing.T) {
	m := &Metrics{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.FetchLatency.Observe(0.001)
				if err := m.WriteExposition(io.Discard, time.Second); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.FetchLatency.Count(); got != 4000 {
		t.Fatalf("count = %d, want 4000", got)
	}
}

func TestWriteExposition(t *testing.T) {
	m := &Metrics{}
	m.FetchRequests.Add(7)
	m.LocalHits.Add(5)
	m.BytesServed.Add(1234)
	m.FetchLatency.Observe(0.25)
	var sb strings.Builder
	if err := m.WriteExposition(&sb, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"scdn_up 1\n",
		"scdn_uptime_seconds 3.000\n",
		"scdn_fetch_requests_total 7\n",
		"scdn_local_hits_total 5\n",
		"scdn_bytes_served_total 1234\n",
		"scdn_fetch_latency_seconds{quantile=\"0.5\"} 0.250000\n",
		"scdn_fetch_latency_seconds_count 1\n",
		"scdn_resolve_latency_seconds_count 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
