package loadharness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"scdn/internal/metrics"
)

// SchemaVersion is the current BENCH_*.json schema. History:
//
//	(absent) — PR 2–6 records: closed-loop only, no host info, hit rate
//	           unguarded against zero-sample runs.
//	2        — schema_version + host block on every record, optional
//	           open_loop section with the rate sweep and knee point.
//	           Records written while the serving plane still had a
//	           payload block cache also carry payload_cache_hits,
//	           payload_cache_misses and payload_cache_hit_rate; readers
//	           ignore those keys.
const SchemaVersion = 2

// Host pins the hardware/runtime context a BENCH record was produced
// under, so numbers from different machines are comparable (or visibly
// not): a knee measured at GOMAXPROCS=1 on a shared runner is not a
// regression against one measured on a 16-core box.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

// CurrentHost captures the running process's host context.
func CurrentHost() Host {
	return Host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}

// HostMismatch describes the host-context differences between two host
// blocks that make their numbers incomparable, or "" when there are
// none. scdn-perfgate refuses to compare on a mismatch: a knee measured
// at GOMAXPROCS=1 against a 16-core baseline, or under another Go
// runtime, is not a regression, it is a different experiment.
func HostMismatch(a, b Host) string {
	var diffs []string
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.NumCPU != b.NumCPU {
		diffs = append(diffs, fmt.Sprintf("NumCPU %d vs %d", a.NumCPU, b.NumCPU))
	}
	if a.GoVersion != b.GoVersion {
		diffs = append(diffs, fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion))
	}
	return strings.Join(diffs, ", ")
}

// KneePoint is the sweep's operating point: the highest arrival rate
// the serve path absorbed without falling off the latency cliff.
type KneePoint struct {
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	P99MS       float64 `json:"p99_ms"`
}

// OpenLoop is a delivery record's open-loop section: the swept
// latency-vs-throughput curve and its knee.
type OpenLoop struct {
	Distribution    string       `json:"distribution"` // always DistExponential
	DurationSeconds float64      `json:"duration_seconds"`
	MaxConns        int          `json:"max_conns"`
	Rates           []RateResult `json:"rates"`
	Knee            *KneePoint   `json:"knee,omitempty"`
}

// NewOpenLoop assembles the open-loop section from sweep results.
func NewOpenLoop(cfg SweepConfig, results []RateResult) *OpenLoop {
	ol := &OpenLoop{
		Distribution:    DistExponential,
		DurationSeconds: cfg.Duration.Seconds(),
		MaxConns:        cfg.MaxConns,
		Rates:           results,
	}
	if i := Knee(results); i >= 0 {
		ol.Knee = &KneePoint{
			OfferedRPS:  results[i].OfferedRPS,
			AchievedRPS: results[i].AchievedRPS,
			P99MS:       results[i].LatencyMS.P99,
		}
	}
	return ol
}

// DeliveryRecord is the BENCH_delivery.json schema: the delivery
// plane's perf trajectory across PRs, and perfgate's ratchet unit.
type DeliveryRecord struct {
	SchemaVersion   int             `json:"schema_version"`
	Host            Host            `json:"host"`
	Mode            string          `json:"mode"` // "open-loop"
	Requests        int             `json:"requests"`
	Edges           int             `json:"edges"`
	Datasets        int             `json:"datasets"`
	BytesPerDataset int64           `json:"bytes_per_dataset"`
	PayloadMode     string          `json:"payload_mode"`
	ElapsedSeconds  float64         `json:"elapsed_seconds"`
	ThroughputRPS   float64         `json:"throughput_rps"`
	ThroughputMBps  float64         `json:"throughput_mbps"`
	LatencyMS       metrics.Latency `json:"latency_ms"`
	Failed          uint64          `json:"failed"`
	RangeRequests   uint64          `json:"range_requests"`
	Reconciled      bool            `json:"reconciled"`
	OpenLoop        *OpenLoop       `json:"open_loop,omitempty"`
}

// WriteRecord marshals any BENCH record as indented JSON.
func WriteRecord(path string, rec any) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadDeliveryRecord loads a BENCH_delivery.json history record.
func ReadDeliveryRecord(path string) (*DeliveryRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec DeliveryRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("loadharness: parse %s: %w", path, err)
	}
	return &rec, nil
}

// LargeMix records how many requests of each flavor a large-object
// run's seeded mix issued: whole-object GETs, ranged window fetches,
// and segment walks (every segment of a dataset via the segment
// endpoint, in order).
type LargeMix struct {
	Whole       uint64 `json:"whole"`
	Ranged      uint64 `json:"ranged"`
	SegmentWalk uint64 `json:"segment_walk"`
}

// LargeRecord is the BENCH_large.json schema: the large-object
// delivery engine's byte-throughput trajectory — the perf ratchet's
// second axis, next to BENCH_delivery.json's request-latency knee.
// The store counters are scraped from the cluster's /metrics after the
// sweep, so a record proves the segmented path actually ran (nonzero
// segmented_serves) rather than measuring the whole-file path by
// accident.
type LargeRecord struct {
	SchemaVersion     int             `json:"schema_version"`
	Host              Host            `json:"host"`
	Mode              string          `json:"mode"` // "open-loop"
	Seed              int64           `json:"seed"`
	Edges             int             `json:"edges"`
	Datasets          int             `json:"datasets"`
	BytesPerDataset   int64           `json:"bytes_per_dataset"`
	SegmentSize       int64           `json:"segment_size"`
	StoreQuota        int64           `json:"store_quota"`
	Mix               LargeMix        `json:"mix"`
	TotalBytes        uint64          `json:"total_bytes"`
	ElapsedSeconds    float64         `json:"elapsed_seconds"`
	SustainedMBps     float64         `json:"sustained_mbps"` // wall-clock MB/s at the knee step
	LatencyMS         metrics.Latency `json:"latency_ms"`
	RequestMBps       metrics.Latency `json:"request_mbps"`
	Failed            uint64          `json:"failed"`
	SegmentedServes   uint64          `json:"segmented_serves"`
	SegmentFetches    uint64          `json:"segment_fetches"`
	SegmentPulls      uint64          `json:"segment_pulls"`
	FadviseSequential uint64          `json:"fadvise_sequential"`
	FadviseDontNeed   uint64          `json:"fadvise_dontneed"`
	Materializations  uint64          `json:"materializations"`
	MaterializedBytes uint64          `json:"materialized_bytes"`
	Reconciled        bool            `json:"reconciled"`
	OpenLoop          *OpenLoop       `json:"open_loop,omitempty"`
}

// ReadLargeRecord loads a BENCH_large.json history record.
func ReadLargeRecord(path string) (*LargeRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec LargeRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("loadharness: parse %s: %w", path, err)
	}
	return &rec, nil
}

// GateOptions tunes the perfgate tolerance band. Zero values get
// defaults suited to shared CI runners (loose but real).
type GateOptions struct {
	// Tolerance is the allowed fractional knee-throughput regression:
	// 0.5 fails only when the candidate knee falls below half the
	// baseline knee. Default 0.5.
	Tolerance float64
	// MaxP99Inflation is the allowed knee-p99 growth factor, with an
	// absolute floor of GateP99FloorMS so microsecond baselines don't
	// fail on scheduler noise. Default 4.
	MaxP99Inflation float64
}

// GateP99FloorMS is the absolute knee-p99 level below which the gate
// never fails on latency: single-digit milliseconds on a loopback smoke
// are indistinguishable from scheduler jitter.
const GateP99FloorMS = 25.0

// CompareDelivery is the perf ratchet: it fails (returns an error) when
// the candidate record regresses past the tolerance band relative to
// the checked-in baseline — knee throughput down by more than
// Tolerance, knee p99 inflated past MaxP99Inflation (and above the
// absolute floor), any failed requests, or a reconciliation mismatch.
// A baseline predating the open-loop schema (no open_loop section)
// cannot anchor a ratchet; the candidate then only has to be healthy.
func CompareDelivery(baseline, candidate *DeliveryRecord, opt GateOptions) error {
	if opt.Tolerance <= 0 {
		opt.Tolerance = 0.5
	}
	if opt.MaxP99Inflation <= 0 {
		opt.MaxP99Inflation = 4
	}
	if candidate == nil {
		return fmt.Errorf("perfgate: no candidate record")
	}
	if !candidate.Reconciled {
		return fmt.Errorf("perfgate: candidate record did not reconcile against /metrics")
	}
	if candidate.Failed != 0 {
		return fmt.Errorf("perfgate: candidate recorded %d failed requests", candidate.Failed)
	}
	if candidate.OpenLoop == nil || candidate.OpenLoop.Knee == nil {
		return fmt.Errorf("perfgate: candidate record has no open-loop knee (run scdn-loadgen -scenario delivery)")
	}
	if baseline == nil || baseline.OpenLoop == nil || baseline.OpenLoop.Knee == nil {
		// Pre-ratchet history: nothing to compare against. The candidate
		// becoming the new checked-in record starts the ratchet.
		return nil
	}
	base, cand := baseline.OpenLoop.Knee, candidate.OpenLoop.Knee
	if floor := base.AchievedRPS * (1 - opt.Tolerance); cand.AchievedRPS < floor {
		return fmt.Errorf("perfgate: knee throughput regressed: %.1f rps < %.1f rps (baseline %.1f, tolerance %.0f%%)",
			cand.AchievedRPS, floor, base.AchievedRPS, opt.Tolerance*100)
	}
	p99Cap := base.P99MS * opt.MaxP99Inflation
	if p99Cap < GateP99FloorMS {
		p99Cap = GateP99FloorMS
	}
	if cand.P99MS > p99Cap {
		return fmt.Errorf("perfgate: knee p99 regressed: %.2fms > %.2fms cap (baseline %.2fms, inflation %.1fx)",
			cand.P99MS, p99Cap, base.P99MS, opt.MaxP99Inflation)
	}
	return nil
}

// CompareLarge is the byte-throughput axis of the perf ratchet: the
// candidate BENCH_large.json must be healthy (reconciled, zero
// unexcused failures, a real open-loop knee, the segmented path
// actually exercised) and its sustained MB/s at the knee must not fall
// more than Tolerance below the checked-in baseline's. Latency is
// DeliveryRecord's axis; this one guards bytes.
func CompareLarge(baseline, candidate *LargeRecord, opt GateOptions) error {
	if opt.Tolerance <= 0 {
		opt.Tolerance = 0.5
	}
	if candidate == nil {
		return fmt.Errorf("perfgate: no large candidate record")
	}
	if !candidate.Reconciled {
		return fmt.Errorf("perfgate: large candidate record did not reconcile against /metrics")
	}
	if candidate.Failed != 0 {
		return fmt.Errorf("perfgate: large candidate recorded %d failed requests", candidate.Failed)
	}
	if candidate.OpenLoop == nil || candidate.OpenLoop.Knee == nil {
		return fmt.Errorf("perfgate: large candidate record has no open-loop knee (run scdn-loadgen -scenario large)")
	}
	if candidate.SegmentedServes == 0 && candidate.SegmentFetches == 0 {
		return fmt.Errorf("perfgate: large candidate never hit the segmented path (segmented_serves and segment_fetches both zero)")
	}
	if candidate.SustainedMBps <= 0 {
		return fmt.Errorf("perfgate: large candidate sustained 0 MB/s")
	}
	if baseline == nil {
		// First record starts the ratchet.
		return nil
	}
	if floor := baseline.SustainedMBps * (1 - opt.Tolerance); candidate.SustainedMBps < floor {
		return fmt.Errorf("perfgate: sustained byte throughput regressed: %.1f MB/s < %.1f MB/s (baseline %.1f, tolerance %.0f%%)",
			candidate.SustainedMBps, floor, baseline.SustainedMBps, opt.Tolerance*100)
	}
	return nil
}
