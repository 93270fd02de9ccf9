// Package metrics provides the measurement layer for the S-CDN: generic
// counters, gauges, and one bounded histogram plus the two Section V-E metric sets —
// CDN quality (availability, reliability, redundancy, response time,
// stability) and social performance (request acceptance rate, exchanges,
// immediacy of allocation, success ratio, free-rider ratio, transaction
// volume, resource abundance, scarcity distribution).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotone event count. Counters are goroutine-safe so the
// same metric set can be shared between the single-threaded simulator and
// the concurrent HTTP serving plane; the zero value is ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time value. Like Counter it is goroutine-safe; the
// float is stored as its IEEE-754 bits and Add retries on contention.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// CDNMetrics is the Section V-E CDN-quality metric set.
type CDNMetrics struct {
	// ResponseTime records end-to-end data access latency (seconds).
	ResponseTime Histogram
	// TransferThroughput records achieved per-transfer Mbps.
	TransferThroughput Histogram
	// RequestsServed / RequestsFailed count data accesses.
	RequestsServed Counter
	RequestsFailed Counter
	// LocalHits counts accesses satisfied from the local repository;
	// ReplicaHits from a remote replica; OriginFetches from the dataset
	// owner when no replica was available.
	LocalHits     Counter
	ReplicaHits   Counter
	OriginFetches Counter
	// ReplicaUnavailable counts chosen replicas that turned out offline
	// (reliability); Migrations counts replica moves (stability);
	// RedundancySamples records replicas-per-dataset over time.
	ReplicaUnavailable Counter
	Migrations         Counter
	RedundancySamples  Histogram
	// UpdatePropagations counts anti-entropy update deliveries;
	// StalenessSamples records the fraction of stale replica copies at
	// sample instants (eventual-consistency quality).
	UpdatePropagations Counter
	StalenessSamples   Histogram
	// AvailabilitySamples records the fraction of online replica nodes at
	// sample instants.
	AvailabilitySamples Histogram
}

// Availability returns mean sampled replica-node availability.
func (m *CDNMetrics) Availability() float64 { return m.AvailabilitySamples.Mean() }

// Reliability returns the fraction of served requests that did not hit an
// offline replica, 1 when nothing happened.
func (m *CDNMetrics) Reliability() float64 {
	total := m.RequestsServed.Value() + m.RequestsFailed.Value()
	if total == 0 {
		return 1
	}
	bad := float64(m.ReplicaUnavailable.Value())
	rel := 1 - bad/float64(total)
	if rel < 0 {
		return 0
	}
	return rel
}

// HitRatio returns the fraction of served requests answered locally or by
// a replica (vs. origin fetches).
func (m *CDNMetrics) HitRatio() float64 {
	served := float64(m.RequestsServed.Value())
	if served == 0 {
		return 0
	}
	return float64(m.LocalHits.Value()+m.ReplicaHits.Value()) / served
}

// SocialMetrics is the Section V-E social-performance metric set.
type SocialMetrics struct {
	// StorageRequests / StorageAccepts drive the request acceptance rate.
	StorageRequests Counter
	StorageAccepts  Counter
	// Exchanges counts data exchanges undertaken; Successful/Failed split
	// them for the success ratio.
	Exchanges           Counter
	SuccessfulExchanges Counter
	FailedExchanges     Counter
	// AllocationDelay records how fast participants accept placement
	// requests (seconds) — "immediacy of allocation".
	AllocationDelay Histogram
	// BytesContributed / BytesConsumed per user feed the free-rider ratio.
	contributed map[int64]int64
	consumed    map[int64]int64
	// TransactionVolumeBytes totals network usage.
	TransactionVolumeBytes Counter
	// AllocatedBytes / ContributedBytes drive resource abundance.
	AllocatedBytes   Gauge
	ContributedBytes Gauge
	// SiteBytes tracks per-site contributed capacity for the scarcity
	// distribution.
	siteBytes map[int]int64
}

// NewSocialMetrics returns an initialized social metric set.
func NewSocialMetrics() *SocialMetrics {
	return &SocialMetrics{
		contributed: make(map[int64]int64),
		consumed:    make(map[int64]int64),
		siteBytes:   make(map[int]int64),
	}
}

// RecordContribution credits a user (and site) with contributed bytes.
func (m *SocialMetrics) RecordContribution(user int64, site int, bytes int64) {
	m.contributed[user] += bytes
	m.siteBytes[site] += bytes
	m.ContributedBytes.Add(float64(bytes))
}

// RecordConsumption charges a user with consumed bytes.
func (m *SocialMetrics) RecordConsumption(user int64, bytes int64) {
	m.consumed[user] += bytes
}

// AcceptanceRate returns accepted/requested storage placements (1 when no
// requests were made).
func (m *SocialMetrics) AcceptanceRate() float64 {
	if m.StorageRequests.Value() == 0 {
		return 1
	}
	return float64(m.StorageAccepts.Value()) / float64(m.StorageRequests.Value())
}

// SuccessRatio returns successful/total exchanges (1 when none).
func (m *SocialMetrics) SuccessRatio() float64 {
	total := m.SuccessfulExchanges.Value() + m.FailedExchanges.Value()
	if total == 0 {
		return 1
	}
	return float64(m.SuccessfulExchanges.Value()) / float64(total)
}

// FreeRiderRatio returns the fraction of users who consumed data but
// contributed less than minContribution bytes.
func (m *SocialMetrics) FreeRiderRatio(minContribution int64) float64 {
	users := make(map[int64]struct{}, len(m.consumed)+len(m.contributed))
	for u := range m.consumed {
		users[u] = struct{}{}
	}
	for u := range m.contributed {
		users[u] = struct{}{}
	}
	if len(users) == 0 {
		return 0
	}
	free := 0
	for u := range users {
		if m.consumed[u] > 0 && m.contributed[u] < minContribution {
			free++
		}
	}
	return float64(free) / float64(len(users))
}

// AllocationRatio returns allocated/contributed bytes (resource
// abundance; 0 when nothing contributed).
func (m *SocialMetrics) AllocationRatio() float64 {
	if m.ContributedBytes.Value() == 0 {
		return 0
	}
	return m.AllocatedBytes.Value() / m.ContributedBytes.Value()
}

// ScarcityRatio returns the ratio of sites below half the mean per-site
// contribution to sites at or above it — the paper's "ratio of scarce to
// abundant resource locations". It returns 0 when no site is abundant.
func (m *SocialMetrics) ScarcityRatio() float64 {
	if len(m.siteBytes) == 0 {
		return 0
	}
	var total int64
	for _, b := range m.siteBytes {
		total += b
	}
	mean := float64(total) / float64(len(m.siteBytes))
	scarce, abundant := 0, 0
	for _, b := range m.siteBytes {
		if float64(b) < mean/2 {
			scarce++
		} else {
			abundant++
		}
	}
	if abundant == 0 {
		return 0
	}
	return float64(scarce) / float64(abundant)
}

// Report writes a human-readable summary of both metric sets.
func Report(w io.Writer, cdn *CDNMetrics, social *SocialMetrics, elapsed time.Duration) error {
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("== CDN metrics (%v simulated) ==\n", elapsed)
	p("requests served/failed:      %d / %d\n", cdn.RequestsServed.Value(), cdn.RequestsFailed.Value())
	p("hit ratio (local+replica):   %.3f (local %d, replica %d, origin %d)\n",
		cdn.HitRatio(), cdn.LocalHits.Value(), cdn.ReplicaHits.Value(), cdn.OriginFetches.Value())
	p("response time s (mean/p50/p95): %.3f / %.3f / %.3f\n",
		cdn.ResponseTime.Mean(), cdn.ResponseTime.Quantile(0.5), cdn.ResponseTime.Quantile(0.95))
	p("throughput Mbps (mean):      %.1f\n", cdn.TransferThroughput.Mean())
	p("availability (mean sampled): %.3f\n", cdn.Availability())
	p("reliability:                 %.3f (offline-replica events: %d)\n",
		cdn.Reliability(), cdn.ReplicaUnavailable.Value())
	p("redundancy (mean replicas):  %.2f\n", cdn.RedundancySamples.Mean())
	p("stability (migrations):      %d\n", cdn.Migrations.Value())
	p("staleness (mean sampled):    %.3f (update deliveries: %d)\n",
		cdn.StalenessSamples.Mean(), cdn.UpdatePropagations.Value())
	p("== Social metrics ==\n")
	p("request acceptance rate:     %.3f (%d/%d)\n",
		social.AcceptanceRate(), social.StorageAccepts.Value(), social.StorageRequests.Value())
	p("data exchanges:              %d (success ratio %.3f)\n",
		social.Exchanges.Value(), social.SuccessRatio())
	p("immediacy of allocation s:   mean %.3f p95 %.3f\n",
		social.AllocationDelay.Mean(), social.AllocationDelay.Quantile(0.95))
	p("free-rider ratio:            %.3f\n", social.FreeRiderRatio(1))
	p("transaction volume:          %d bytes\n", social.TransactionVolumeBytes.Value())
	p("allocated/contributed:       %.3f\n", social.AllocationRatio())
	p("scarce:abundant sites:       %.3f\n", social.ScarcityRatio())
	return err
}
