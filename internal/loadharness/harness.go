package loadharness

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"scdn/internal/server"
	"scdn/internal/storage"
	"scdn/internal/transport"
)

// Options is one scdn-loadgen run: the scenario and its knobs. A zero
// Bytes, Datasets, Rates or BenchOut takes the scenario's default.
type Options struct {
	Scenario string
	// Nodes sizes the in-process cluster; Targets, when set, replaces
	// it with the base URLs of a running one (delivery only).
	Nodes   int
	Targets []string
	// Workers is the closed-loop (churn) or upload/fetch (ingest)
	// concurrency and the in-process cluster's user count; Requests is
	// their fetch budget.
	Workers  int
	Requests int
	Datasets int
	Bytes    int64
	// Stripes splits each ingest upload and download across edges.
	Stripes int
	Seed    int64
	// Verify checks every payload byte of a large run; the other
	// scenarios always verify.
	Verify   bool
	BenchOut string
	// Churn is a ChurnSpec ("kill=2,restart=5s"): required by churn,
	// optional for ingest.
	Churn string
	// Rates, Duration and MaxConns shape an open-loop sweep (delivery,
	// large).
	Rates    []float64
	Duration time.Duration
	MaxConns int
	// SegmentSize and StoreQuota shape a large run's cluster.
	SegmentSize int64
	StoreQuota  int64
}

// scenario is one row of the harness: its defaults, what its cluster
// needs, and its request mix. Everything else — setup, the /metrics
// delta, the record and the exit status — is the shared path in Main.
type scenario struct {
	bytes    int64
	datasets int
	rates    []float64
	// segmented stores and serves every dataset as segments; uploads
	// starts the cluster empty; warm fetches every dataset from every
	// edge before the first scrape; targets allows -targets.
	segmented, uploads, warm, targets bool
	mix                               func(context.Context, *env) (outcome, error)
}

var scenarios = map[string]scenario{
	"delivery": {bytes: 64 << 10, datasets: 12, rates: []float64{200, 400, 800, 1600},
		warm: true, targets: true, mix: deliveryMix},
	"large": {bytes: 256 << 20, datasets: 2, rates: []float64{1, 2, 4, 8},
		segmented: true, warm: true, mix: largeMix},
	"churn":  {bytes: 64 << 10, datasets: 12, mix: churnMix},
	"ingest": {bytes: 64 << 10, datasets: 12, uploads: true, mix: ingestMix},
}

// Scenarios names the scenarios Main runs, for usage text.
const Scenarios = "delivery, large, churn, ingest"

// outcome is what a request mix observed on the client side.
type outcome interface {
	// reconcile is a pure function of the client's counts and the
	// cluster's /metrics delta; it returns every mismatch.
	reconcile(d Counters) []string
	// record is the BENCH record the run writes.
	record(e *env, d Counters, reconciled bool) any
}

// Main runs one scenario through the shared path — setup, request mix,
// reconcile, record — and returns the process exit status: 0 only when
// the run reconciled and its record was written.
func Main(ctx context.Context, o Options) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "scdn-loadgen:", err)
		return 1
	}
	sc, err := o.resolve()
	if err != nil {
		return fail(err)
	}
	e, err := setup(ctx, o, sc)
	if err != nil {
		return fail(err)
	}
	defer e.close()
	out, err := sc.mix(ctx, e)
	if err != nil {
		return fail(err)
	}
	return e.finish(ctx, out)
}

// resolve fills o's scenario defaults and rejects combinations the
// scenario cannot run.
func (o *Options) resolve() (scenario, error) {
	sc, ok := scenarios[o.Scenario]
	if !ok {
		return sc, fmt.Errorf("unknown scenario %q (want one of %s)", o.Scenario, Scenarios)
	}
	if o.Bytes <= 0 {
		o.Bytes = sc.bytes
	}
	if o.Datasets <= 0 {
		o.Datasets = sc.datasets
	}
	if len(o.Rates) == 0 {
		o.Rates = sc.rates
	}
	if o.BenchOut == "" {
		o.BenchOut = "BENCH_" + o.Scenario + ".json"
	}
	switch {
	case len(o.Targets) > 0 && !sc.targets:
		return sc, fmt.Errorf("-scenario %s drives the in-process cluster; it cannot take -targets", o.Scenario)
	case o.Scenario == "churn" && o.Churn == "":
		return sc, fmt.Errorf("-scenario churn needs a -churn schedule")
	case o.Churn != "" && o.Scenario != "churn" && o.Scenario != "ingest":
		return sc, fmt.Errorf("-churn applies to the churn and ingest scenarios only")
	case sc.segmented && o.Bytes < o.SegmentSize:
		return sc, fmt.Errorf("-bytes (%d) < segment size (%d): small datasets never segment", o.Bytes, o.SegmentSize)
	}
	if o.Churn != "" {
		if _, err := ParseChurnSpec(o.Churn); err != nil {
			return sc, err
		}
	}
	return sc, nil
}

// env is one run's environment: the cluster (in-process, or the
// -targets URLs), a session per edge, and the /metrics scrape taken
// before the request mix.
type env struct {
	Options
	lc       *server.LocalCluster // nil against -targets
	urls     []string
	datasets []storage.DatasetID
	client   *http.Client
	tokens   []string // tokens[i] is a session opened on urls[i]
	before   Counters
}

// setup starts the in-process cluster or takes the -targets URLs, logs
// in on every edge, warms the scenarios that measure the hot path, then
// quiesces and takes the first scrape.
func setup(ctx context.Context, o Options, sc scenario) (*env, error) {
	e := &env{Options: o, client: transport.NewClient(60 * time.Second)}
	var users []int64
	if len(o.Targets) > 0 {
		e.urls = o.Targets
		for d := 1; d <= o.Datasets; d++ {
			e.datasets = append(e.datasets, storage.DatasetID(fmt.Sprintf("ds-%03d", d)))
		}
		users = []int64{101} // scdn-serve provisions client users 101..100+N
	} else {
		cfg := server.ClusterConfig{
			Nodes: o.Nodes, Users: o.Workers, Datasets: o.Datasets, DatasetBytes: o.Bytes,
			Seed: o.Seed, PullThrough: true, StoreQuota: o.StoreQuota, NoSeedDatasets: sc.uploads,
			Sweep: server.SweeperConfig{ReplicationTarget: replicationTarget},
		}
		if sc.segmented {
			cfg.SegmentSize, cfg.SegmentThreshold = o.SegmentSize, o.SegmentSize
		}
		lc, err := server.StartLocalCluster(cfg)
		if err != nil {
			return nil, err
		}
		e.lc, e.urls, e.datasets = lc, lc.URLs(), lc.DatasetIDs
		for _, u := range lc.UserIDs {
			users = append(users, int64(u))
		}
		fmt.Printf("scdn-loadgen: %s: %d-node in-process cluster on loopback TCP, %d datasets × %d bytes\n",
			o.Scenario, o.Nodes, o.Datasets, o.Bytes)
	}
	for i, base := range e.urls {
		tok, err := login(ctx, e.client, base, users[i%len(users)])
		if err != nil {
			e.close()
			return nil, fmt.Errorf("login on %s: %w", base, err)
		}
		e.tokens = append(e.tokens, tok)
	}
	// Warm every edge once per dataset so the mix measures the serving
	// hot path, not first-touch materialization (or, segmented, the
	// adoption of segments over the peer pull-through).
	for i := 0; sc.warm && i < len(e.urls); i++ {
		for _, ds := range e.datasets {
			if _, err := fetch(ctx, e.client, e.urls[i], e.tokens[i], ds, o.Bytes, false); err != nil {
				e.close()
				return nil, fmt.Errorf("warmup fetch %s from %s: %w", ds, e.urls[i], err)
			}
		}
	}
	e.before = e.scrape(ctx)
	return e, nil
}

// finish takes the second scrape, reconciles, writes the record, and
// returns the exit status.
func (e *env) finish(ctx context.Context, out outcome) int {
	d := e.scrape(ctx).Sub(e.before)
	bad := out.reconcile(d)
	for _, m := range bad {
		fmt.Println("mismatch:", m)
	}
	if err := WriteRecord(e.BenchOut, out.record(e, d, len(bad) == 0)); err != nil {
		fmt.Fprintln(os.Stderr, "scdn-loadgen: bench-out:", err)
		return 1
	}
	fmt.Println("benchmark record:", e.BenchOut)
	if len(bad) > 0 {
		return 1
	}
	fmt.Println("metrics reconciliation: OK")
	return 0
}

func (e *env) close() {
	if e.lc == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.lc.Shutdown(ctx)
}

// payloadMode is the record's payload_mode: "dir" for the in-process
// cluster's disk volumes, "targets" for a run against -targets.
func (e *env) payloadMode() string {
	if e.lc == nil {
		return "targets"
	}
	return "dir"
}

// scrape sums every edge's plain /metrics counters. An in-process
// cluster is quiesced first: an edge records a fetch's latency after
// the client has read the last byte, so a scrape taken straight after a
// request can miss that sample. A -targets run scrapes at once.
func (e *env) scrape(ctx context.Context) Counters {
	if e.lc != nil {
		qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		if err := e.lc.Quiesce(qctx); err != nil {
			fmt.Fprintln(os.Stderr, "scdn-loadgen: quiesce:", err)
		}
		cancel()
		e.urls = e.lc.URLs() // restarted members listen on fresh ports
	}
	out := Counters{}
	for _, base := range e.urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			continue
		}
		resp, err := e.client.Do(req)
		if err != nil {
			continue // a member churn left down
		}
		out.add(resp.Body)
		resp.Body.Close()
	}
	return out
}

// Counters maps exposition counter names to values, summed over edges.
type Counters map[string]uint64

// add sums an exposition's plain "name value" lines into c. Labelled
// lines — quantiles, and _bucket{le=…} — and comments are skipped: only
// a whole-node counter reconciles against the client's counts.
func (c Counters) add(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || strings.ContainsAny(fields[0], "{#") {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			c[fields[0]] += uint64(v)
		}
	}
}

// Sub is the delta c − before, so a run reconciles against an
// already-warm cluster too.
func (c Counters) Sub(before Counters) Counters {
	out := make(Counters, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// mismatches collects a reconciler's failed checks.
type mismatches []string

func (m *mismatches) check(ok bool, format string, args ...any) {
	if !ok {
		*m = append(*m, fmt.Sprintf(format, args...))
	}
}

// drain reads the remainder of an unwanted response body to EOF
// (bounded) before close, so the transport returns the connection to
// its idle pool instead of tearing it down.
func drain(r io.Reader) { _, _ = io.Copy(io.Discard, io.LimitReader(r, 1<<20)) }

func login(ctx context.Context, client *http.Client, base string, user int64) (string, error) {
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

// fetch GETs a whole dataset, verifying the stream byte for byte
// (constant memory) when verify is set.
func fetch(ctx context.Context, client *http.Client, base, tok string, ds storage.DatasetID,
	size int64, verify bool) (int64, error) {
	return get(ctx, client, base+"/v1/fetch/"+string(ds), tok, "", http.StatusOK, ds, 0, size, verify)
}

// get issues one GET with an optional Range header and reads exactly n
// payload bytes of ds from offset off out of a want-status answer.
func get(ctx context.Context, client *http.Client, url, tok, rangeHdr string, want int,
	ds storage.DatasetID, off, n int64, verify bool) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		drain(resp.Body)
		return 0, fmt.Errorf("status %s (want %d)", resp.Status, want)
	}
	if verify {
		return server.VerifyPayloadRange(resp.Body, ds, off, n)
	}
	got, err := io.Copy(io.Discard, resp.Body)
	if err == nil && got != n {
		err = fmt.Errorf("body length %d, want %d", got, n)
	}
	return got, err
}
