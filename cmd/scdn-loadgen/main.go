// Command scdn-loadgen drives the S-CDN serving plane end to end and
// checks what it measured. Each -scenario starts an in-process edge
// cluster on loopback TCP (or, for delivery, takes the -targets URLs of
// a running one), runs its request mix, reconciles the client's counts
// against the cluster's /metrics, writes a BENCH record (-bench-out),
// and exits non-zero on any failed request or accounting mismatch.
//
//	delivery  open-loop sweep of verified whole GETs over a seeded
//	          arrival-rate ladder; latency from intended start times
//	large     open-loop byte-throughput sweep over segmented datasets:
//	          a seeded whole/ranged/segment-walk mix
//
// Churn, repair and ingest under churn are not load-generated: the
// stepped churn test in internal/server (TestSteppedChurn) asserts them
// after every slot of seeded availability traces, and
// scdn-serve -churn-script kills and restarts members of a running
// cluster by hand.
//
// Usage:
//
//	scdn-loadgen -scenario delivery -rates 100,200,400 -openloop-duration 1s
//	scdn-loadgen -scenario delivery -targets http://127.0.0.1:8001,http://127.0.0.1:8002
//	scdn-loadgen -scenario large -bytes 33554432 -segment-size 4194304 -rates 4,8,16
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"scdn/internal/loadharness"
	"scdn/internal/storage"
)

func main() {
	var o loadharness.Options
	var targets, rates string
	flag.StringVar(&o.Scenario, "scenario", "delivery", "what to run: "+loadharness.Scenarios)
	flag.IntVar(&o.Nodes, "nodes", 3, "in-process edge servers")
	flag.StringVar(&targets, "targets", "", "comma-separated base URLs of a running cluster (delivery only)")
	flag.IntVar(&o.Datasets, "datasets", 0, "datasets (0: 12, or 2 for large; ds-001.. on -targets)")
	flag.Int64Var(&o.Bytes, "bytes", 0, "bytes per dataset (0: 64 KiB, or 256 MiB for large)")
	flag.Int64Var(&o.Seed, "seed", 42, "workload seed")
	flag.BoolVar(&o.Verify, "verify", false, "large: verify every payload byte (delivery always does)")
	flag.StringVar(&o.BenchOut, "bench-out", "", "benchmark record path (default BENCH_<scenario>.json)")
	flag.StringVar(&rates, "rates", "", "arrival-rate ladder in req/s (default 200,400,800,1600, or 1,2,4,8 for large)")
	flag.DurationVar(&o.Duration, "openloop-duration", 2*time.Second, "per-rate schedule duration")
	flag.IntVar(&o.MaxConns, "max-conns", 64, "open-loop connection pool bound (queueing past it is charged to latency)")
	flag.Int64Var(&o.SegmentSize, "segment-size", storage.DefaultSegmentSize, "large: segment size (a multiple of the 64 KiB ingest block)")
	flag.Int64Var(&o.StoreQuota, "store-quota", 0, "per-node disk-volume quota (0: cluster default)")
	flag.Parse()

	if targets != "" {
		o.Targets = strings.Split(targets, ",")
	}
	for _, f := range strings.FieldsFunc(rates, func(r rune) bool { return r == ',' }) {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "scdn-loadgen: bad arrival rate %q in -rates (want positive req/s)\n", f)
			os.Exit(1)
		}
		o.Rates = append(o.Rates, v)
	}
	os.Exit(loadharness.Main(context.Background(), o))
}
