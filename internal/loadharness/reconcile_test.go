package loadharness

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// exposition renders counters as one edge's /metrics text, with the
// comment, quantile and _bucket{le=…} lines a real exposition carries
// around them.
func exposition(c Counters) string {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "# HELP %s a counter\n# TYPE %s counter\n%s %d\n", k, k, k, c[k])
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} 7.5\n%s_bucket{le=\"0.005\"} 9\n", k, k)
	}
	return b.String()
}

// scrapeDelta is what finish reconciles against: each side's counters
// split across two edges, parsed from their expositions, summed, and
// differenced. Every counter starts at 1000, so the delta is real.
func scrapeDelta(delta Counters) Counters {
	parse := func(add uint64) Counters {
		out := Counters{}
		for edge := uint64(0); edge < 2; edge++ {
			half := Counters{}
			for k, v := range delta {
				v = v*add + 1000
				half[k] = v/2 + edge*(v%2) // the two halves sum to v
			}
			out.add(strings.NewReader(exposition(half)))
		}
		return out
	}
	return parse(1).Sub(parse(0))
}

func TestCountersParseExposition(t *testing.T) {
	var c Counters = Counters{}
	c.add(strings.NewReader(`# HELP scdn_fetch_requests_total fetches
# TYPE scdn_fetch_requests_total counter
scdn_fetch_requests_total 12
scdn_fetch_latency_seconds{quantile="0.5"} 0.002
fetch_latency_seconds_bucket{le="0.005"} 11
scdn_fetch_latency_seconds_count 12
scdn_fetch_latency_seconds_mean 0.250000
not a counter line
`))
	c.add(strings.NewReader("scdn_fetch_requests_total 3\n"))
	want := Counters{"scdn_fetch_requests_total": 15, "scdn_fetch_latency_seconds_count": 12,
		"scdn_fetch_latency_seconds_mean": 0}
	if len(c) != len(want) {
		t.Fatalf("parsed %v, want %v", c, want)
	}
	for k, v := range want {
		if c[k] != v {
			t.Fatalf("%s = %d, want %d (parsed %v)", k, c[k], v, c)
		}
	}
	d := Counters{"scdn_fetch_requests_total": 20}.Sub(c)
	if d["scdn_fetch_requests_total"] != 5 || len(d) != 1 {
		t.Fatalf("Sub = %v, want scdn_fetch_requests_total 5", d)
	}
}

// checkReconcile runs one doctored case: a healthy case must reconcile,
// a doctored one must report exactly one mismatch, naming want — so
// deleting the check it doctors fails the test.
func checkReconcile(t *testing.T, out outcome, delta Counters, want string) {
	t.Helper()
	got := out.reconcile(scrapeDelta(delta))
	switch {
	case want == "" && len(got) != 0:
		t.Fatalf("healthy run reported %q", got)
	case want != "" && (len(got) != 1 || !strings.Contains(got[0], want)):
		t.Fatalf("mismatches = %q, want exactly one naming %q", got, want)
	}
}

func TestReconcileDelivery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		doctor func(*deliveryOutcome, Counters)
		want   string
	}{
		{"healthy", func(*deliveryOutcome, Counters) {}, ""},
		{"client failure", func(o *deliveryOutcome, _ Counters) { o.failed = 1 }, "requests failed"},
		{"fetch not counted", func(_ *deliveryOutcome, d Counters) { d["scdn_fetch_requests_total"]-- }, "fetches"},
		{"latency sample missing", func(_ *deliveryOutcome, d Counters) { d["scdn_fetch_latency_seconds_count"]-- }, "latency samples"},
		{"server failure", func(_ *deliveryOutcome, d Counters) { d["scdn_fetch_failures_total"] = 1 }, "fetch failures"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := &deliveryOutcome{issued: 100}
			d := Counters{"scdn_fetch_requests_total": 100, "scdn_fetch_latency_seconds_count": 100,
				"scdn_fetch_failures_total": 0}
			tc.doctor(o, d)
			checkReconcile(t, o, d, tc.want)
		})
	}
}

func TestReconcileLarge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		doctor func(*largeOutcome, Counters)
		want   string
	}{
		{"healthy", func(*largeOutcome, Counters) {}, ""},
		{"client failure", func(o *largeOutcome, _ Counters) { o.failed = 1 }, "requests failed"},
		{"fetch not counted", func(_ *largeOutcome, d Counters) { d["scdn_fetch_requests_total"]-- }, "whole+ranged"},
		{"peer segment hop", func(_ *largeOutcome, d Counters) { d["scdn_peer_segment_fetch_requests_total"]++ }, "segment fetches"},
		{"fetch failure", func(_ *largeOutcome, d Counters) { d["scdn_fetch_failures_total"] = 1 }, "failures"},
		{"segment failure", func(_ *largeOutcome, d Counters) { d["scdn_segment_fetch_failures_total"] = 1 }, "failures"},
		{"segmented path idle", func(_ *largeOutcome, d Counters) { d["scdn_segmented_serves_total"] = 0 }, "never ran"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := &largeOutcome{sweepResult: &sweepResult{}}
			o.mix[mixWhole].Store(2)
			o.mix[mixRanged].Store(3)
			o.mix[mixSegmentWalk].Store(1)
			o.segRequests.Store(8)
			d := Counters{"scdn_fetch_requests_total": 5, "scdn_segment_fetch_requests_total": 10,
				"scdn_peer_segment_fetch_requests_total": 2, "scdn_segmented_serves_total": 4,
				"scdn_fetch_failures_total": 0, "scdn_segment_fetch_failures_total": 0}
			tc.doctor(o, d)
			checkReconcile(t, o, d, tc.want)
		})
	}
}

func TestOptionsResolve(t *testing.T) {
	o := Options{Scenario: "large", SegmentSize: 1 << 20}
	if _, err := o.resolve(); err != nil {
		t.Fatal(err)
	}
	if o.Bytes != 256<<20 || o.Datasets != 2 || len(o.Rates) != 4 || o.BenchOut != "BENCH_large.json" {
		t.Fatalf("large defaults not applied: %+v", o)
	}
	for _, bad := range []Options{
		{Scenario: "closed"},
		{Scenario: "churn"},
		{Scenario: "ingest"},
		{Scenario: "large", Targets: []string{"http://x"}},
		{Scenario: "large", Bytes: 1 << 20, SegmentSize: 4 << 20},
	} {
		if _, err := bad.resolve(); err == nil {
			t.Errorf("resolve(%+v) accepted, want error", bad)
		}
	}
}
