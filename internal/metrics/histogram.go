package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram bucket geometry: values from histMin up are bucketed at
// histSubBuckets buckets per power of two, giving a worst-case relative
// error of 2^(1/histSubBuckets)-1 (~4.4% at 16 sub-buckets) — the
// HDR-histogram trade: fixed memory, bounded relative error, O(1)
// lock-free recording from any number of goroutines.
const (
	histMin        = 1e-6 // everything below lands in bucket 0
	histOctaves    = 36   // covers up to ~64,000 (seconds, MB/s, ...)
	histSubBuckets = 16
	histBuckets    = histOctaves*histSubBuckets + 1
)

// Histogram is the repo's one distribution type: a goroutine-safe,
// log-bucketed histogram of non-negative samples. The simulator's
// §V-E metric sets, every edge's request latencies, and the load
// harness all record into it. Memory is fixed (~4.6 KiB) no matter how
// many samples arrive, recording is lock-free, and quantiles carry the
// bucket geometry's bounded relative error. The zero value is ready to
// use; all methods may be called concurrently.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNS   atomic.Uint64 // sum in nano-units: room for 1.8e10 units (~584y of seconds)
	maxBits atomic.Uint64 // max sample, as float64 bits
}

// bucketIndex maps a non-negative sample to its bucket.
func bucketIndex(v float64) int {
	if v < histMin {
		return 0
	}
	idx := int(math.Log2(v/histMin)*histSubBuckets) + 1
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketValue returns the representative value (upper bound) of a bucket.
func bucketValue(idx int) float64 {
	if idx <= 0 {
		return histMin
	}
	return histMin * math.Pow(2, float64(idx)/histSubBuckets)
}

// Observe records one sample. Negative and NaN samples are clamped to
// zero (a clock step mid-request must not panic the run).
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(uint64(v * 1e9))
	h.raiseMax(math.Float64bits(v))
}

// raiseMax lifts the tracked max to the sample whose bits are vb.
func (h *Histogram) raiseMax(vb uint64) {
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(vb) <= math.Float64frombits(old) {
			return
		}
		if h.maxBits.CompareAndSwap(old, vb) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the mean sample (0 when empty), at nano-unit resolution.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sumNS.Load()) / 1e9 / float64(n)
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Quantile returns the q-quantile (0..1, clamped) by cumulative bucket
// rank, 0 when empty. The answer is the rank's bucket upper bound
// capped at Max: never below the true order statistic, never above the
// largest sample, and at most one bucket width above the truth.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := max(uint64(math.Ceil(q*float64(total))), 1)
	var seen uint64
	for i := 0; i < histBuckets-1; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return math.Min(bucketValue(i), h.Max())
		}
	}
	// Overflow bucket: the true value may exceed the bucket bound; the
	// tracked max is the honest answer.
	return h.Max()
}

// Merge folds other's samples into h. Not atomic with respect to
// concurrent Observe calls on other; merge quiesced histograms.
func (h *Histogram) Merge(other *Histogram) {
	for i := range other.buckets {
		if n := other.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sumNS.Add(other.sumNS.Load())
	h.raiseMax(other.maxBits.Load())
}

// Latency is a distribution digest — the shape every BENCH record
// stores, in milliseconds for latencies (LatencyMS) or in the
// histogram's native units (Digest).
type Latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max,omitempty"`
}

// Digest summarizes the histogram in its native units — used for
// per-request byte-throughput (MB/s) distributions, where the
// millisecond scaling of LatencyMS does not apply.
func (h *Histogram) Digest() Latency {
	return Latency{
		Mean: h.Mean(),
		P50:  h.Quantile(0.5),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		Max:  h.Max(),
	}
}

// LatencyMS digests a histogram of seconds into milliseconds.
func (h *Histogram) LatencyMS() Latency {
	d := h.Digest()
	return Latency{Mean: d.Mean * 1000, P50: d.P50 * 1000, P95: d.P95 * 1000,
		P99: d.P99 * 1000, Max: d.Max * 1000}
}

func (l Latency) String() string {
	return fmt.Sprintf("mean %.2fms p50 %.2fms p95 %.2fms p99 %.2fms max %.2fms",
		l.Mean, l.P50, l.P95, l.P99, l.Max)
}
