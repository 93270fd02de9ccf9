// Command scdn-loadgen is a closed-loop, multi-worker load generator for
// the S-CDN serving plane. By default it starts an in-process edge
// cluster on loopback TCP and hammers it; with -targets it drives an
// already-running cluster (e.g. one started by scdn-serve). Each worker
// logs in over the wire, then loops: optionally resolve, fetch a
// dataset — either whole or as -stripes concurrent range requests spread
// across replica holders (GridFTP-style) — verify the payload in-stream
// with constant memory, and record latency. At the end it reports
// throughput and latency percentiles, reconciles its own totals against
// the cluster's /metrics expositions, optionally writes a
// machine-readable benchmark record (-bench-out), and exits non-zero on
// any failed request or accounting mismatch.
//
// Usage:
//
//	scdn-loadgen                                   # 3-node cluster, 8 workers, 600 requests
//	scdn-loadgen -nodes 5 -workers 32 -requests 10000 -pull-through
//	scdn-loadgen -stripes 4                        # parallel striped range fetches
//	scdn-loadgen -churn 'kill=2,restart=5s'        # crash nodes mid-run; repair must heal
//	scdn-loadgen -targets http://127.0.0.1:8001,http://127.0.0.1:8002 -datasets 12
//
// With -churn, the generator crashes live nodes on a schedule while the
// workers keep fetching: failures that churn can explain are excused and
// retried against surviving edges, everything else still fails the run,
// and after the schedule finishes the run only passes if the background
// repair sweepers have restored every dataset to the replication floor.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scdn/internal/cdnclient"
	"scdn/internal/loadharness"
	"scdn/internal/metrics"
	"scdn/internal/server"
	"scdn/internal/storage"
	"scdn/internal/transport"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 3, "in-process edge servers (ignored with -targets)")
		targets     = flag.String("targets", "", "comma-separated base URLs of a running cluster")
		workers     = flag.Int("workers", 8, "concurrent closed-loop workers")
		requests    = flag.Int("requests", 600, "total fetch requests")
		datasets    = flag.Int("datasets", 12, "datasets (published in-process, or assumed ds-001.. on -targets)")
		bytesPer    = flag.Int64("bytes", 64<<10, "bytes per dataset")
		resolveEach = flag.Int("resolve-every", 5, "issue a resolve before every Nth fetch (0 disables; ignored with -stripes > 1)")
		stripesN    = flag.Int("stripes", 1, "fetch each dataset as N parallel range requests across replica holders")
		seed        = flag.Int64("seed", 42, "workload seed")
		pullThrough = flag.Bool("pull-through", true, "enable pull-through caching (in-process mode)")
		verify      = flag.Bool("verify", true, "verify every payload in-stream, byte-for-byte")
		benchOut    = flag.String("bench-out", "BENCH_delivery.json", "write a machine-readable benchmark record here (empty disables)")
		churnFlag   = flag.String("churn", "", "inject node churn, e.g. 'kill=2,restart=5s' (in-process mode only)")
		ingestMode  = flag.Bool("ingest", false, "ingest mode: upload opaque datasets, fetch under churn, require repair-by-copy")
		openLoop    = flag.Bool("openloop", false, "open-loop mode: sweep seeded arrival rates, latency from intended start times")
		ratesFlag   = flag.String("rates", "200,400,800,1600", "arrival-rate ladder in req/s for -openloop / -large")
		olDuration  = flag.Duration("openloop-duration", 2*time.Second, "per-rate schedule duration for -openloop / -large")
		maxConns    = flag.Int("max-conns", 64, "open-loop connection pool bound (queueing past it is charged to latency)")
		distFlag    = flag.String("dist", loadharness.DistExponential, "inter-arrival distribution for -openloop: exp or uniform")
		largeMode   = flag.Bool("large", false, "large-object mode: open-loop byte-throughput sweep with a seeded whole/ranged/segment-walk mix")
		segSize     = flag.Int64("segment-size", storage.DefaultSegmentSize, "segment size for -large (multiple of the 64 KiB ingest block)")
		storeQuota  = flag.Int64("store-quota", 0, "per-node disk-volume quota for -large (0: cluster default)")
	)
	flag.Parse()

	if *largeMode {
		if *churnFlag != "" || *ingestMode || *openLoop || *targets != "" {
			fatal(fmt.Errorf("-large cannot be combined with -churn, -ingest, -openloop, or -targets"))
		}
		// Flags left at defaults get large-object-appropriate values:
		// multi-hundred-MiB datasets, a rate ladder scaled to heavy
		// requests, and no in-stream verification (hashing every byte on
		// the client would measure SHA-256, not the serve path).
		touched := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { touched[f.Name] = true })
		if !touched["bytes"] {
			*bytesPer = 256 << 20
		}
		if !touched["rates"] {
			*ratesFlag = "1,2,4,8"
		}
		if !touched["datasets"] {
			*datasets = 2
		}
		if !touched["verify"] {
			*verify = false
		}
		if !touched["bench-out"] {
			*benchOut = "BENCH_large.json"
		}
		rates, err := parseRates(*ratesFlag)
		if err != nil {
			fatal(err)
		}
		runLarge(largeParams{
			nodes: *nodes, datasets: *datasets, bytesPer: *bytesPer,
			segSize: *segSize, storeQuota: *storeQuota,
			rates: rates, duration: *olDuration, maxConns: *maxConns,
			dist: *distFlag, seed: *seed, verify: *verify, benchOut: *benchOut,
		})
		return
	}

	if *openLoop {
		if *churnFlag != "" || *ingestMode {
			fatal(fmt.Errorf("-openloop cannot be combined with -churn or -ingest"))
		}
		rates, err := parseRates(*ratesFlag)
		if err != nil {
			fatal(err)
		}
		runOpenLoop(openLoopParams{
			nodes: *nodes, targets: *targets, datasets: *datasets,
			bytesPer: *bytesPer, rates: rates, duration: *olDuration,
			maxConns: *maxConns, dist: *distFlag, seed: *seed,
			pull: *pullThrough, verify: *verify, benchOut: *benchOut,
		})
		return
	}

	if *ingestMode {
		if *targets != "" {
			fatal(fmt.Errorf("-ingest drives the in-process cluster; it cannot be combined with -targets"))
		}
		out := *benchOut
		if out == "BENCH_delivery.json" {
			out = "BENCH_ingest.json"
		}
		stripes := *stripesN
		if stripes < 1 {
			stripes = 1
		}
		runIngest(ingestParams{
			nodes: *nodes, workers: *workers, datasets: *datasets,
			bytesPer: *bytesPer, fetches: *requests, stripes: stripes,
			seed: *seed, churn: *churnFlag, benchOut: out,
		})
		return
	}

	var (
		urls        []string
		datasetIDs  []storage.DatasetID
		userIDs     []int64
		lc          *server.LocalCluster
		churnRun    *server.ChurnRun
		churnEvents []server.ChurnEvent
	)
	var churnSpec server.ChurnSpec
	if *churnFlag != "" {
		if *targets != "" {
			fatal(fmt.Errorf("-churn drives the in-process cluster; it cannot be combined with -targets"))
		}
		var err error
		if churnSpec, err = server.ParseChurnSpec(*churnFlag); err != nil {
			fatal(err)
		}
		if *stripesN > 1 {
			fmt.Println("scdn-loadgen: churn mode forces -stripes 1")
			*stripesN = 1
		}
		// Resolve-before-fetch is noise under churn (a resolve can 503
		// while holders are dead); the fetch path's own retries are the
		// experiment.
		*resolveEach = 0
	}
	// payloadMode lands in the benchmark record: "dir" for the
	// in-process cluster's disk-backed volumes, "targets" for a run
	// against an external cluster.
	payloadMode := "dir"
	// The loadgen pins the sweeper's replication floor explicitly so the
	// post-churn acceptance check below tests against the same number.
	const replicationTarget = 2
	if *targets == "" {
		var err error
		lc, err = server.StartLocalCluster(server.ClusterConfig{
			Nodes: *nodes, Users: *workers, Datasets: *datasets,
			DatasetBytes: *bytesPer, Seed: *seed, PullThrough: *pullThrough,
			Sweep: server.SweeperConfig{ReplicationTarget: replicationTarget},
		})
		if err != nil {
			fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = lc.Shutdown(ctx)
		}()
		urls = lc.URLs()
		datasetIDs = lc.DatasetIDs
		for _, u := range lc.UserIDs {
			userIDs = append(userIDs, int64(u))
		}
		fmt.Printf("scdn-loadgen: started %d-node in-process cluster on loopback TCP\n", *nodes)
		if *churnFlag != "" {
			churnEvents = churnSpec.Events(*nodes, *seed)
			churnRun = server.StartChurn(lc, churnEvents)
			fmt.Printf("scdn-loadgen: churn schedule: %d events (%s)\n", len(churnEvents), *churnFlag)
		}
	} else {
		payloadMode = "targets"
		urls = strings.Split(*targets, ",")
		for d := 0; d < *datasets; d++ {
			datasetIDs = append(datasetIDs, storage.DatasetID(fmt.Sprintf("ds-%03d", d+1)))
		}
		// scdn-serve provisions client users 101..100+N.
		for u := 0; u < *workers; u++ {
			userIDs = append(userIDs, int64(101+u))
		}
	}
	if *stripesN < 1 {
		*stripesN = 1
	}
	// Every logical request turns into this many client-facing HTTP
	// fetches (stripes are clipped to the dataset size).
	fetchesPerRequest := int64(*stripesN)
	if fetchesPerRequest > *bytesPer {
		fetchesPerRequest = *bytesPer
	}

	// One run-scoped context flows through every outbound request, so a
	// future interrupt/timeout hook has a single cancellation point.
	ctx := context.Background()

	before := scrapeAll(ctx, urls)

	var (
		issued, failed, resolves atomic.Uint64
		excused                  atomic.Uint64
		bytesRead                atomic.Int64
		next                     atomic.Int64
		lat                      metrics.Histogram
		wg                       sync.WaitGroup
	)
	// Churn-mode retry policy: a request that fails while churn can
	// explain it (a member down, or a transition within the grace window)
	// is re-issued against a live edge instead of counting as a failure.
	// The budget outlasts kill + detection + restart comfortably.
	const (
		churnRetryLimit = 60
		churnRetryDelay = 250 * time.Millisecond
		churnGrace      = 10 * time.Second
	)
	// Pace churn-mode workers so the request stream spans the whole churn
	// schedule — an unpaced loopback run finishes in milliseconds and the
	// kills would land on an idle cluster, proving nothing.
	var churnPace time.Duration
	if churnRun != nil && len(churnEvents) > 0 && *requests > 0 {
		span := churnEvents[len(churnEvents)-1].At + 2*time.Second
		churnPace = span * time.Duration(*workers) / time.Duration(*requests)
	}
	// pickBase chooses a fetch target; under churn, a currently-running
	// node (restarted members listen on fresh ports).
	pickBase := func(rng *rand.Rand) string {
		if churnRun == nil {
			return urls[rng.Intn(len(urls))]
		}
		var live []string
		for _, nd := range lc.Nodes {
			if nd.Running() {
				live = append(live, nd.BaseURL())
			}
		}
		if len(live) == 0 {
			return urls[rng.Intn(len(urls))]
		}
		return live[rng.Intn(len(live))]
	}
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			// All workers share the serving plane's tuned transport (one
			// raised idle pool, keep-alives), matching what the edges use
			// for their peer hops — striped fetches keep connections warm
			// without every worker growing a private pool.
			client := transport.NewClient(30 * time.Second)
			user := userIDs[w%len(userIDs)]
			tok, err := loginHTTP(ctx, client, urls[w%len(urls)], user)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scdn-loadgen: worker %d login: %v\n", w, err)
				failed.Add(1)
				return
			}
			var accesses uint64
			for {
				i := next.Add(1)
				if i > int64(*requests) {
					break
				}
				if churnPace > 0 {
					time.Sleep(churnPace)
				}
				ds := datasetIDs[rng.Intn(len(datasetIDs))]
				base := pickBase(rng)
				var n int64
				if *stripesN > 1 {
					// Striped mode resolves first: the response's replica
					// list names the holders the stripes fan out across.
					issued.Add(1)
					t0 := time.Now()
					res, rerr := resolveHTTP(ctx, client, base, tok, string(ds))
					if rerr != nil {
						lat.Observe(time.Since(t0).Seconds())
						fmt.Fprintf(os.Stderr, "scdn-loadgen: resolve %s: %v\n", ds, rerr)
						failed.Add(1)
						continue
					}
					resolves.Add(1)
					n, err = fetchStriped(ctx, client, res, urls, tok, ds, *bytesPer, *stripesN, *verify)
					lat.Observe(time.Since(t0).Seconds())
				} else {
					if *resolveEach > 0 && i%int64(*resolveEach) == 0 {
						if _, err := resolveHTTP(ctx, client, base, tok, string(ds)); err != nil {
							fmt.Fprintf(os.Stderr, "scdn-loadgen: resolve %s: %v\n", ds, err)
							failed.Add(1)
							continue
						}
						resolves.Add(1)
					}
					issued.Add(1)
					t0 := time.Now()
					n, err = fetchHTTP(ctx, client, base, tok, ds, *bytesPer, *verify)
					lat.Observe(time.Since(t0).Seconds())
				}
				if err != nil && churnRun != nil {
					for attempt := 0; attempt < churnRetryLimit && err != nil && churnRun.Active(churnGrace); attempt++ {
						excused.Add(1)
						time.Sleep(churnRetryDelay)
						base = pickBase(rng)
						n, err = fetchHTTP(ctx, client, base, tok, ds, *bytesPer, *verify)
					}
				}
				bytesRead.Add(n)
				accesses++
				if err != nil {
					fmt.Fprintf(os.Stderr, "scdn-loadgen: fetch %s: %v\n", ds, err)
					failed.Add(1)
				}
			}
			// Closed loop done: report usage statistics like the paper's
			// CDN client.
			_ = reportHTTP(ctx, client, urls[w%len(urls)], tok, user, accesses)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Under churn, let the schedule finish (late restarts), then require
	// the repair sweepers to bring every dataset back to the replication
	// floor before judging the run.
	var churnSum server.ChurnSummary
	repairOK := true
	if churnRun != nil {
		churnRun.Wait()
		churnSum = churnRun.Summary()
		want := replicationTarget
		if live := lc.LiveNodes(); live < want {
			want = live
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			bad := 0
			for _, st := range lc.ReplicationStatus() {
				if st.Live < want {
					bad++
				}
			}
			if bad == 0 {
				fmt.Printf("post-churn repair: every dataset at >= %d live replicas\n", want)
				break
			}
			if time.Now().After(deadline) {
				fmt.Printf("post-churn repair incomplete: %d datasets below %d live replicas\n", bad, want)
				repairOK = false
				break
			}
			time.Sleep(250 * time.Millisecond)
		}
		urls = lc.URLs() // restarted members listen on fresh ports
	}

	after := scrapeAll(ctx, urls)
	delta := diffScrapes(before, after)

	s := lat.LatencyMS()
	mb := float64(bytesRead.Load()) / (1 << 20)
	fmt.Printf("\n%d workers × closed loop over %d edges: %d requests (%d resolves, %d stripes/request) in %.2fs\n",
		*workers, len(urls), issued.Load(), resolves.Load(), fetchesPerRequest, elapsed.Seconds())
	fmt.Printf("throughput: %.1f req/s, %.1f MB/s (%.1f MB served)\n",
		float64(issued.Load())/elapsed.Seconds(), mb/elapsed.Seconds(), mb)
	fmt.Printf("latency ms: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f\n",
		s.Mean, s.P50, s.P95, s.P99)
	fmt.Printf("failed requests: %d\n", failed.Load())

	fmt.Printf("cluster delta: fetch=%d failures=%d local=%d peer=%d origin=%d retries=%d ranges=%d latency-samples=%d\n",
		delta["scdn_fetch_requests_total"], delta["scdn_fetch_failures_total"],
		delta["scdn_local_hits_total"], delta["scdn_peer_hits_total"],
		delta["scdn_origin_fetches_total"], delta["scdn_peer_retries_total"],
		delta["scdn_range_requests_total"], delta["scdn_fetch_latency_seconds_count"])
	if churnRun != nil {
		fmt.Printf("churn: kills=%d stops=%d restarts=%d still-down=%d excused-failures=%d\n",
			churnSum.Kills, churnSum.Stops, churnSum.Restarts, churnSum.Down, excused.Load())
		fmt.Printf("repair delta: sweeps=%d dead=%d readmitted=%d restored=%d readopted=%d failures=%d churn-503=%d suspect-probes=%d\n",
			delta["scdn_repair_sweeps_total"], delta["scdn_repair_dead_members_total"],
			delta["scdn_repair_readmissions_total"], delta["scdn_repair_replicas_restored_total"],
			delta["scdn_repair_readopted_replicas_total"], delta["scdn_repair_failures_total"],
			delta["scdn_churn_unavailable_total"], delta["scdn_probe_failures_total"])
	}

	wantFetches := issued.Load() * uint64(fetchesPerRequest)
	ok := true
	if failed.Load() != 0 {
		ok = false
	}
	if churnRun == nil {
		if delta["scdn_fetch_requests_total"] != wantFetches {
			fmt.Printf("metrics mismatch: cluster saw %d fetches, loadgen issued %d (%d × %d stripes)\n",
				delta["scdn_fetch_requests_total"], wantFetches, issued.Load(), fetchesPerRequest)
			ok = false
		}
		if delta["scdn_fetch_latency_seconds_count"] != wantFetches {
			fmt.Printf("metrics mismatch: cluster recorded %d latency samples, want %d\n",
				delta["scdn_fetch_latency_seconds_count"], wantFetches)
			ok = false
		}
		if delta["scdn_fetch_failures_total"] != 0 {
			fmt.Printf("metrics mismatch: cluster recorded %d fetch failures\n",
				delta["scdn_fetch_failures_total"])
			ok = false
		}
	} else {
		// Exact fetch-count reconciliation is impossible when requests die
		// mid-flight with their server; instead every failure must be
		// explained. Client side: zero unexcused failures (checked above).
		// Server side: fetch failures can only be churn casualties, so
		// they are bounded by the client's excused retries.
		for _, e := range churnSum.Errs {
			fmt.Println("churn event error:", e)
			ok = false
		}
		if !repairOK {
			ok = false
		}
		if delta["scdn_fetch_failures_total"] > excused.Load() {
			fmt.Printf("metrics mismatch: %d cluster fetch failures exceed %d churn-excused client failures\n",
				delta["scdn_fetch_failures_total"], excused.Load())
			ok = false
		}
		if churnSum.AllRestarted {
			// With every member back, the churn counters are fully
			// scrapeable and must match the schedule exactly.
			if delta["scdn_churn_kills_total"] != uint64(churnSum.Kills) {
				fmt.Printf("metrics mismatch: cluster counted %d kills, churn injected %d\n",
					delta["scdn_churn_kills_total"], churnSum.Kills)
				ok = false
			}
			if delta["scdn_churn_restarts_total"] != uint64(churnSum.Restarts) {
				fmt.Printf("metrics mismatch: cluster counted %d restarts, churn applied %d\n",
					delta["scdn_churn_restarts_total"], churnSum.Restarts)
				ok = false
			}
		}
	}
	if *benchOut != "" {
		if err := loadharness.WriteRecord(*benchOut, loadharness.DeliveryRecord{
			SchemaVersion: loadharness.SchemaVersion,
			Host:          loadharness.CurrentHost(),
			Mode:          "closed-loop",
			Workers:       *workers, Requests: int(issued.Load()), Stripes: int(fetchesPerRequest),
			Edges: len(urls), Datasets: *datasets, BytesPerDataset: *bytesPer,
			PayloadMode:    payloadMode,
			ElapsedSeconds: elapsed.Seconds(),
			ThroughputRPS:  float64(issued.Load()) / elapsed.Seconds(),
			ThroughputMBps: mb / elapsed.Seconds(),
			// Closed-loop records carry no max.
			LatencyMS:     metrics.Latency{Mean: s.Mean, P50: s.P50, P95: s.P95, P99: s.P99},
			Failed:        failed.Load(),
			RangeRequests: delta["scdn_range_requests_total"],
			Reconciled:    ok,
			Churn:         churnBenchInfo(churnRun != nil, *churnFlag, churnSum, excused.Load(), delta),
		}); err != nil {
			fmt.Fprintf(os.Stderr, "scdn-loadgen: bench-out: %v\n", err)
			ok = false
		} else {
			fmt.Printf("benchmark record: %s\n", *benchOut)
		}
	}
	if ok {
		fmt.Println("metrics reconciliation: OK")
	} else {
		os.Exit(1)
	}
}

// churnBenchInfo shapes the optional churn section of a BENCH record.
func churnBenchInfo(ran bool, spec string, sum server.ChurnSummary, excused uint64,
	delta map[string]uint64) *loadharness.ChurnRecord {
	if !ran {
		return nil
	}
	return &loadharness.ChurnRecord{
		Spec:             spec,
		Kills:            sum.Kills,
		Restarts:         sum.Restarts,
		AllRestarted:     sum.AllRestarted,
		ExcusedFailures:  excused,
		DeadMembers:      delta["scdn_repair_dead_members_total"],
		Readmissions:     delta["scdn_repair_readmissions_total"],
		ReplicasRestored: delta["scdn_repair_replicas_restored_total"],
		Churn503s:        delta["scdn_churn_unavailable_total"],
	}
}

// drain reads the remainder of an unwanted response body to EOF
// (bounded) before close, so the transport returns the connection to
// its idle pool instead of tearing it down.
func drain(r io.Reader) { _, _ = io.Copy(io.Discard, io.LimitReader(r, 1<<20)) }

func loginHTTP(ctx context.Context, client *http.Client, base string, user int64) (string, error) {
	body, _ := json.Marshal(server.LoginRequest{User: user})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/login", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drain(resp.Body)
		return "", fmt.Errorf("login status %s", resp.Status)
	}
	var lr server.LoginResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return "", err
	}
	return lr.Token, nil
}

func resolveHTTP(ctx context.Context, client *http.Client, base, tok, dataset string) (server.ResolveResponse, error) {
	var rr server.ResolveResponse
	body, _ := json.Marshal(server.ResolveRequest{Dataset: dataset})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/resolve", bytes.NewReader(body))
	if err != nil {
		return rr, err
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := client.Do(req)
	if err != nil {
		return rr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drain(resp.Body)
		return rr, fmt.Errorf("resolve status %s", resp.Status)
	}
	return rr, json.NewDecoder(resp.Body).Decode(&rr)
}

// fetchHTTP fetches a whole dataset, verifying the stream incrementally
// (constant memory) when verify is set.
func fetchHTTP(ctx context.Context, client *http.Client, base, tok string, ds storage.DatasetID,
	wantBytes int64, verify bool) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/fetch/"+string(ds), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drain(resp.Body)
		return 0, fmt.Errorf("status %s", resp.Status)
	}
	if verify {
		return server.VerifyPayload(resp.Body, ds, wantBytes)
	}
	return io.Copy(io.Discard, resp.Body)
}

// fetchStriped fans the dataset out as parallel range requests across the
// resolved replica holders (falling back to the whole edge set when the
// holders expose fewer endpoints than stripes need).
func fetchStriped(ctx context.Context, client *http.Client, res server.ResolveResponse, allURLs []string,
	tok string, ds storage.DatasetID, wantBytes int64, stripes int, verify bool) (int64, error) {
	var endpoints []string
	for _, rep := range res.Replicas {
		if rep.URL != "" {
			endpoints = append(endpoints, rep.URL)
		}
	}
	if len(endpoints) < stripes {
		for _, u := range allURLs {
			if !slices.Contains(endpoints, u) {
				endpoints = append(endpoints, u)
			}
		}
	}
	opts := cdnclient.StripeOptions{
		Client: client, Endpoints: endpoints, Token: tok,
		Stripes: stripes,
	}
	if verify {
		opts.NewVerifier = func(off, length int64) (io.WriteCloser, error) {
			return server.NewRangeVerifier(ds, off, length), nil
		}
	}
	r, err := cdnclient.FetchStriped(ctx, opts, ds, wantBytes)
	return r.Bytes, err
}

func reportHTTP(ctx context.Context, client *http.Client, base, tok string, user int64, accesses uint64) error {
	body, _ := json.Marshal(server.ReportRequest{Client: user, Accesses: accesses})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/report", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	drain(resp.Body)
	resp.Body.Close()
	return nil
}

// scrapeAll sums plain counter lines from every node's /metrics.
func scrapeAll(ctx context.Context, urls []string) map[string]uint64 {
	out := make(map[string]uint64)
	client := &http.Client{Timeout: 5 * time.Second}
	for _, base := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) != 2 || strings.Contains(fields[0], "{") {
				continue
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				continue
			}
			out[fields[0]] += uint64(v)
		}
		resp.Body.Close()
	}
	return out
}

// diffScrapes subtracts the pre-run scrape so the reconciliation works
// against an already-warm external cluster too.
func diffScrapes(before, after map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scdn-loadgen:", err)
	os.Exit(1)
}
