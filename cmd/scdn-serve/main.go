// Command scdn-serve runs a live S-CDN delivery cluster: N allocation/
// edge servers on real loopback TCP sockets sharing one social platform,
// middleware, membership registry, and allocation catalog. It prints the
// cluster topology (endpoints, datasets, users) and serves until
// interrupted, then shuts down gracefully.
//
// Usage:
//
//	scdn-serve                         # 3 edges on ephemeral ports
//	scdn-serve -nodes 5 -datasets 30 -pull-through
//	scdn-serve -store-dir /tmp/store   # keep the replica volumes after shutdown
//	scdn-serve -host 0.0.0.0           # reachable off-box
//	scdn-serve -churn-script churn.txt # scripted node churn (see below)
//
// A churn script injects membership failures on a schedule, one event
// per line — "<offset> <action> <node>", actions kill/stop/restart:
//
//	2s  kill    2
//	7s  restart 2
//
// Drive it with scdn-loadgen, or by hand:
//
//	curl -s -X POST <url>/v1/login -d '{"user":101}'
//	curl -s <url>/v1/fetch/ds-001 -H "Authorization: Bearer <token>"
//	curl -s <url>/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scdn/internal/loadharness"
	"scdn/internal/server"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 3, "edge servers to run")
		sites       = flag.Int("sites", 0, "network sites (0: one per node)")
		users       = flag.Int("users", 8, "client users provisioned on the platform")
		datasets    = flag.Int("datasets", 12, "datasets published into the CDN")
		bytes       = flag.Int64("bytes", 64<<10, "bytes per dataset")
		host        = flag.String("host", "127.0.0.1", "address to bind (ports are ephemeral)")
		seed        = flag.Int64("seed", 42, "auth token seed")
		pullThrough = flag.Bool("pull-through", false, "cache proxied datasets as local replicas")
		group       = flag.String("group", "live-collab", "collaboration group scoping all datasets")
		storeDir    = flag.String("store-dir", "", "root directory for the replica volumes (empty: temp dir, removed on shutdown)")
		storeQuota  = flag.Int64("store-quota", 0, "per-node replica volume byte quota (0: replica reserve)")
		churnFile   = flag.String("churn-script", "", "churn script file: one '<offset> <action> <node>' per line (kill/stop/restart)")
		noSeed      = flag.Bool("no-seed", false, "start with zero datasets; publish via PUT /v1/datasets")
		segSize     = flag.Int64("segment-size", 0, "segmented large-object layout: segment bytes, a multiple of the 64 KiB ingest block (0: default 4 MiB)")
		segThresh   = flag.Int64("segment-threshold", 0, "store and serve datasets at or above this size as segments (0: default 16 MiB, negative: disable)")
		keepPages   = flag.Bool("keep-segment-pages", false, "keep served segment pages in the page cache (skip the post-serve DONTNEED drop)")
	)
	flag.Parse()

	var churnEvents []loadharness.ChurnEvent
	if *churnFile != "" {
		f, err := os.Open(*churnFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scdn-serve:", err)
			os.Exit(1)
		}
		churnEvents, err = loadharness.ParseChurnScript(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "scdn-serve:", err)
			os.Exit(1)
		}
	}

	lc, err := server.StartLocalCluster(server.ClusterConfig{
		Nodes: *nodes, Sites: *sites,
		Users: *users, Datasets: *datasets, DatasetBytes: *bytes,
		Seed: *seed, PullThrough: *pullThrough, Group: *group,
		ListenHost: *host, StoreDir: *storeDir, StoreQuota: *storeQuota,
		NoSeedDatasets:   *noSeed,
		SegmentSize:      *segSize,
		SegmentThreshold: *segThresh,
		KeepSegmentPages: *keepPages,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "scdn-serve:", err)
		os.Exit(1)
	}

	fmt.Printf("scdn-serve: %d edge servers up (group %q, %d datasets × %d bytes, %d users)\n",
		len(lc.Nodes), *group, *datasets, *bytes, *users)
	fmt.Printf("  store:    replica volumes under %s\n", lc.StoreRoot)
	for i, n := range lc.Nodes {
		fmt.Printf("  edge %d: %s\n", i+1, n.BaseURL())
	}
	if len(lc.DatasetIDs) > 0 {
		fmt.Printf("  datasets: %s .. %s\n", lc.DatasetIDs[0], lc.DatasetIDs[len(lc.DatasetIDs)-1])
	} else {
		fmt.Printf("  datasets: none seeded — publish with PUT /v1/datasets/{id}\n")
	}
	fmt.Printf("  users:    %d .. %d\n", lc.UserIDs[0], lc.UserIDs[len(lc.UserIDs)-1])
	fmt.Println("serving — ctrl-c to stop")

	var churn *loadharness.ChurnRun
	if len(churnEvents) > 0 {
		churn = loadharness.StartChurn(lc, churnEvents)
		fmt.Printf("scdn-serve: churn script armed: %d events from %s\n", len(churnEvents), *churnFile)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	if churn != nil {
		churn.Cancel()
		s := churn.Summary()
		fmt.Printf("\nscdn-serve: churn applied: kills=%d stops=%d restarts=%d still-down=%d\n",
			s.Kills, s.Stops, s.Restarts, s.Down)
	}
	fmt.Println("\nscdn-serve: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lc.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "scdn-serve: shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("scdn-serve: bye")
}
