package server

import (
	"fmt"
	"io"
	"time"

	"scdn/internal/metrics"
)

// Metrics is one node's serving-plane metric set, built on the
// goroutine-safe internal/metrics primitives. Client-facing and
// peer-internal traffic are counted separately so a load generator's
// request totals can be reconciled against the cluster's exposition
// without double-counting proxy hops.
type Metrics struct {
	// ResolveRequests / ResolveMisses count POST /v1/resolve calls and
	// the subset that found no online replica.
	ResolveRequests metrics.Counter
	ResolveMisses   metrics.Counter
	// FetchRequests / FetchFailures count client-facing GET /v1/fetch
	// calls; PeerFetchRequests counts fetches arriving from another edge
	// (the internal hop of a fallback).
	FetchRequests     metrics.Counter
	FetchFailures     metrics.Counter
	PeerFetchRequests metrics.Counter
	// LocalHits: served from this node's repository. PeerHits: proxied
	// from another edge's replica. OriginFetches: proxied from the
	// dataset's origin because no other replica was reachable.
	LocalHits     metrics.Counter
	PeerHits      metrics.Counter
	OriginFetches metrics.Counter
	// PeerRetries counts fallback attempts that failed and were retried
	// with backoff.
	PeerRetries metrics.Counter
	// AuthDenied counts rejected authorizations; Reports counts
	// POST /v1/report deliveries; Logins counts issued sessions.
	AuthDenied metrics.Counter
	Reports    metrics.Counter
	Logins     metrics.Counter
	// BytesServed totals payload bytes sent to clients and peers.
	BytesServed metrics.Counter
	// RangeRequests counts fetches that carried a satisfiable Range
	// header (served as 206); RangeMultipart the subset answered as
	// multipart/byteranges (more than one part after coalescing);
	// RangeNotSatisfiable counts the 416s.
	RangeRequests       metrics.Counter
	RangeMultipart      metrics.Counter
	RangeNotSatisfiable metrics.Counter
	// Disk-backed store instrumentation. StoreDiskHits counts local
	// fetches served from the replica volume via sendfile;
	// StoreMaterializations / StoreMaterializedBytes count datasets (and
	// their bytes) written to disk from the deterministic generator;
	// StoreSpills counts pull-through streams committed to disk, and
	// StoreSpillFailures the volume spills that could not start or
	// commit (the serve falls back to the generator, the fetch itself
	// still succeeds).
	StoreDiskHits          metrics.Counter
	StoreMaterializations  metrics.Counter
	StoreMaterializedBytes metrics.Counter
	StoreSpills            metrics.Counter
	StoreSpillFailures     metrics.Counter
	// Segmented large-object delivery instrumentation (segments.go).
	// SegmentedServes counts whole-dataset fetches answered from the
	// per-segment layout; SegmentFetchRequests / SegmentFetchFailures
	// count client-facing GET /v1/fetch/{id}/segments/{n} calls and
	// their failures, PeerSegmentFetchRequests the peer hops of segment
	// proxies; SegmentPulls counts verified segments adopted into the
	// local volume from peer streams (pull-through at segment
	// granularity); StoreFadviseSequential / StoreFadviseDontNeed count
	// applied page-cache hints — readahead advice on fresh segment
	// descriptors and page drops behind completed sequential serves
	// (zero on platforms without posix_fadvise).
	SegmentedServes          metrics.Counter
	SegmentFetchRequests     metrics.Counter
	SegmentFetchFailures     metrics.Counter
	PeerSegmentFetchRequests metrics.Counter
	SegmentPulls             metrics.Counter
	StoreFadviseSequential   metrics.Counter
	StoreFadviseDontNeed     metrics.Counter
	// ReportedAccesses aggregates client-side access counts delivered
	// via /v1/report (the Section V-A usage statistics).
	ReportedAccesses metrics.Counter
	// Failure-detector and repair-sweeper instrumentation (sweeper.go).
	// ProbeFailures counts failed /healthz probes; RepairSweeps counts
	// completed sweep cycles; RepairDeadMembers counts members this node
	// declared dead and deregistered; RepairReadmissions counts members
	// this node re-admitted after a successful probe;
	// RepairReplicasRestored counts replicas this node adopted to close
	// an under-replication or demand gap; RepairReadoptedReplicas counts
	// surviving local copies re-announced to the catalog after a
	// restart; RepairFailures counts repair actions that errored;
	// ReplicateRequests counts POST /v1/replicate calls received.
	ProbeFailures           metrics.Counter
	RepairSweeps            metrics.Counter
	RepairDeadMembers       metrics.Counter
	RepairReadmissions      metrics.Counter
	RepairReplicasRestored  metrics.Counter
	RepairReadoptedReplicas metrics.Counter
	RepairFailures          metrics.Counter
	ReplicateRequests       metrics.Counter
	// Churn instrumentation. ChurnKills counts hard Crash calls on this
	// node; ChurnRestarts counts re-Starts after the first;
	// ChurnUnavailable counts fetches answered 503 + Retry-After because
	// churn left a catalogued dataset with zero live holders — kept out
	// of FetchFailures so load generators can reconcile churn-caused
	// unavailability separately from real errors.
	ChurnKills       metrics.Counter
	ChurnRestarts    metrics.Counter
	ChurnUnavailable metrics.Counter
	// Ingest instrumentation (upload.go, sweeper.go). IngestUploads /
	// IngestUploadBytes count datasets (and bytes) published through
	// PUT /v1/datasets; IngestUploadExpired counts abandoned upload
	// sessions the sweeper reaped; IngestDigestRejects counts byte
	// streams refused for disagreeing with their declared or recorded
	// digest (failed uploads and corrupt peer pulls alike);
	// IngestRepairCopies / IngestRepairCopyBytes count re-replications
	// satisfied by a verified byte transfer from surviving holders, and
	// IngestRepairRegenerated those satisfied by the deterministic
	// generator — for opaque datasets the latter must stay zero.
	IngestUploads           metrics.Counter
	IngestUploadBytes       metrics.Counter
	IngestUploadExpired     metrics.Counter
	IngestDigestRejects     metrics.Counter
	IngestRepairCopies      metrics.Counter
	IngestRepairCopyBytes   metrics.Counter
	IngestRepairRegenerated metrics.Counter
	// SuspectNodes gauges how many members this node's failure detector
	// currently suspects.
	SuspectNodes metrics.Gauge
	// FetchLatency / ResolveLatency / SegmentFetchLatency are end-to-end
	// handler latencies in seconds for client-facing requests.
	FetchLatency        metrics.Histogram
	ResolveLatency      metrics.Histogram
	SegmentFetchLatency metrics.Histogram
}

// WriteExposition writes the node's metrics in a Prometheus-style text
// format. up is the node's uptime.
func (m *Metrics) WriteExposition(w io.Writer, up time.Duration) error {
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("scdn_up 1\n")
	p("scdn_uptime_seconds %.3f\n", up.Seconds())
	counters := []struct {
		name string
		c    *metrics.Counter
	}{
		{"scdn_resolve_requests_total", &m.ResolveRequests},
		{"scdn_resolve_misses_total", &m.ResolveMisses},
		{"scdn_fetch_requests_total", &m.FetchRequests},
		{"scdn_fetch_failures_total", &m.FetchFailures},
		{"scdn_peer_fetch_requests_total", &m.PeerFetchRequests},
		{"scdn_local_hits_total", &m.LocalHits},
		{"scdn_peer_hits_total", &m.PeerHits},
		{"scdn_origin_fetches_total", &m.OriginFetches},
		{"scdn_peer_retries_total", &m.PeerRetries},
		{"scdn_auth_denied_total", &m.AuthDenied},
		{"scdn_reports_total", &m.Reports},
		{"scdn_logins_total", &m.Logins},
		{"scdn_bytes_served_total", &m.BytesServed},
		{"scdn_range_requests_total", &m.RangeRequests},
		{"scdn_range_multipart_total", &m.RangeMultipart},
		{"scdn_range_not_satisfiable_total", &m.RangeNotSatisfiable},
		{"scdn_store_disk_hits_total", &m.StoreDiskHits},
		{"scdn_store_materialize_total", &m.StoreMaterializations},
		{"scdn_store_materialize_bytes_total", &m.StoreMaterializedBytes},
		{"scdn_store_spills_total", &m.StoreSpills},
		{"scdn_store_spill_failures_total", &m.StoreSpillFailures},
		{"scdn_segmented_serves_total", &m.SegmentedServes},
		{"scdn_segment_fetch_requests_total", &m.SegmentFetchRequests},
		{"scdn_segment_fetch_failures_total", &m.SegmentFetchFailures},
		{"scdn_peer_segment_fetch_requests_total", &m.PeerSegmentFetchRequests},
		{"scdn_segment_pulls_total", &m.SegmentPulls},
		{"scdn_store_fadvise_sequential_total", &m.StoreFadviseSequential},
		{"scdn_store_fadvise_dontneed_total", &m.StoreFadviseDontNeed},
		{"scdn_reported_accesses_total", &m.ReportedAccesses},
		{"scdn_probe_failures_total", &m.ProbeFailures},
		{"scdn_repair_sweeps_total", &m.RepairSweeps},
		{"scdn_repair_dead_members_total", &m.RepairDeadMembers},
		{"scdn_repair_readmissions_total", &m.RepairReadmissions},
		{"scdn_repair_replicas_restored_total", &m.RepairReplicasRestored},
		{"scdn_repair_readopted_replicas_total", &m.RepairReadoptedReplicas},
		{"scdn_repair_failures_total", &m.RepairFailures},
		{"scdn_replicate_requests_total", &m.ReplicateRequests},
		{"scdn_churn_kills_total", &m.ChurnKills},
		{"scdn_churn_restarts_total", &m.ChurnRestarts},
		{"scdn_churn_unavailable_total", &m.ChurnUnavailable},
		{"scdn_ingest_uploads_total", &m.IngestUploads},
		{"scdn_ingest_upload_bytes_total", &m.IngestUploadBytes},
		{"scdn_ingest_upload_expired_total", &m.IngestUploadExpired},
		{"scdn_ingest_digest_rejects_total", &m.IngestDigestRejects},
		{"scdn_ingest_repair_copies_total", &m.IngestRepairCopies},
		{"scdn_ingest_repair_copy_bytes_total", &m.IngestRepairCopyBytes},
		{"scdn_ingest_repair_regenerated_total", &m.IngestRepairRegenerated},
	}
	for _, c := range counters {
		p("%s %d\n", c.name, c.c.Value())
	}
	p("scdn_suspect_nodes %.0f\n", m.SuspectNodes.Value())
	hists := []struct {
		name string
		h    *metrics.Histogram
	}{
		{"scdn_fetch_latency_seconds", &m.FetchLatency},
		{"scdn_resolve_latency_seconds", &m.ResolveLatency},
		{"scdn_segment_fetch_latency_seconds", &m.SegmentFetchLatency},
	}
	// Quantiles are bucket upper bounds capped at the largest sample.
	for _, h := range hists {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			p("%s{quantile=\"%g\"} %.6f\n", h.name, q, h.h.Quantile(q))
		}
		p("%s_mean %.6f\n", h.name, h.h.Mean())
		p("%s_count %d\n", h.name, h.h.Count())
	}
	return err
}
