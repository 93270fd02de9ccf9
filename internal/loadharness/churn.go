package loadharness

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scdn/internal/allocation"
	"scdn/internal/ingest"
	"scdn/internal/metrics"
	"scdn/internal/server"
)

// Churn actions.
const (
	ChurnKill    = "kill"    // hard Crash: connections die mid-flight, no goodbye
	ChurnStop    = "stop"    // graceful Stop: drain, deregister, then close
	ChurnRestart = "restart" // Start the node again (fresh port, re-adoption)
)

// ChurnEvent is one scripted membership change.
type ChurnEvent struct {
	// At is the event's offset from the start of the churn run.
	At time.Duration
	// Action is ChurnKill, ChurnStop, or ChurnRestart.
	Action string
	// Node is the 1-based node ID the event targets.
	Node allocation.NodeID
}

// ChurnSpec is the compact churn description behind the -churn flag:
// "kill=2,restart=5s,spacing=2s" kills two distinct nodes two seconds
// apart and restarts each five seconds after its death. restart=never
// leaves the victims down.
type ChurnSpec struct {
	// Kills is how many distinct nodes get crashed.
	Kills int
	// Restart is the downtime before each victim starts again; negative
	// means never.
	Restart time.Duration
	// Spacing separates consecutive kills. Default 2s.
	Spacing time.Duration
}

// ParseChurnSpec parses the "k=v,k=v" form. Unknown keys are errors so a
// typo does not silently run a different experiment.
func ParseChurnSpec(s string) (ChurnSpec, error) {
	spec := ChurnSpec{Restart: 5 * time.Second, Spacing: 2 * time.Second}
	if strings.TrimSpace(s) == "" {
		return spec, fmt.Errorf("loadharness: empty churn spec")
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return spec, fmt.Errorf("loadharness: churn spec %q: want key=value", part)
		}
		switch k {
		case "kill":
			kn, err := strconv.Atoi(v)
			if err != nil || kn < 1 {
				return spec, fmt.Errorf("loadharness: churn spec kill=%q: want a positive count", v)
			}
			spec.Kills = kn
		case "restart":
			if v == "never" {
				spec.Restart = -1
				continue
			}
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return spec, fmt.Errorf("loadharness: churn spec restart=%q: want a duration or never", v)
			}
			spec.Restart = d
		case "spacing":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return spec, fmt.Errorf("loadharness: churn spec spacing=%q: want a positive duration", v)
			}
			spec.Spacing = d
		default:
			return spec, fmt.Errorf("loadharness: churn spec: unknown key %q", k)
		}
	}
	if spec.Kills < 1 {
		return spec, fmt.Errorf("loadharness: churn spec: kill count missing")
	}
	return spec, nil
}

// Events expands the spec into a schedule over a cluster of the given
// size: victims are picked deterministically from the seed, distinct,
// and capped at nodes-1 so at least one member always remains to repair
// around the dead.
func (spec ChurnSpec) Events(nodes int, seed int64) []ChurnEvent {
	kills := spec.Kills
	if kills > nodes-1 {
		kills = nodes - 1
	}
	if kills < 1 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	victims := rng.Perm(nodes)[:kills]
	var ev []ChurnEvent
	for i, v := range victims {
		at := spec.Spacing * time.Duration(i+1)
		node := allocation.NodeID(v + 1)
		ev = append(ev, ChurnEvent{At: at, Action: ChurnKill, Node: node})
		if spec.Restart >= 0 {
			ev = append(ev, ChurnEvent{At: at + spec.Restart, Action: ChurnRestart, Node: node})
		}
	}
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].At < ev[j].At })
	return ev
}

// ParseChurnScript reads a churn script: one event per line,
// "<offset> <action> <node>", e.g. "2s kill 3". Blank lines and
// #-comments are skipped.
func ParseChurnScript(r io.Reader) ([]ChurnEvent, error) {
	var ev []ChurnEvent
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("loadharness: churn script line %d: want \"<offset> <action> <node>\", got %q", line, text)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil || at < 0 {
			return nil, fmt.Errorf("loadharness: churn script line %d: bad offset %q", line, fields[0])
		}
		action := fields[1]
		if action != ChurnKill && action != ChurnStop && action != ChurnRestart {
			return nil, fmt.Errorf("loadharness: churn script line %d: unknown action %q", line, action)
		}
		node, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || node < 1 {
			return nil, fmt.Errorf("loadharness: churn script line %d: bad node %q", line, fields[2])
		}
		ev = append(ev, ChurnEvent{At: at, Action: action, Node: node})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].At < ev[j].At })
	return ev, nil
}

// ChurnSummary is a churn run's outcome.
type ChurnSummary struct {
	// Kills and Stops count applied take-down events; Restarts counts
	// applied start events (failed starts are not counted).
	Kills, Stops, Restarts int
	// Down is how many nodes are still down.
	Down int
	// AllRestarted reports that the schedule has fully run and every
	// taken-down node came back.
	AllRestarted bool
	// Errs collects event application errors (failed restarts).
	Errs []string
}

// ChurnRun executes a churn schedule against a LocalCluster in the
// background.
type ChurnRun struct {
	lc   *server.LocalCluster
	done chan struct{}
	quit chan struct{}

	mu       sync.Mutex
	down     map[allocation.NodeID]bool
	kills    int
	stops    int
	restarts int
	last     time.Time // most recent membership transition
	finished bool
	errs     []string
}

// StartChurn launches the schedule. Events with out-of-range node IDs
// are recorded as errors and skipped.
func StartChurn(lc *server.LocalCluster, events []ChurnEvent) *ChurnRun {
	c := &ChurnRun{
		lc:   lc,
		done: make(chan struct{}),
		quit: make(chan struct{}),
		down: make(map[allocation.NodeID]bool),
		last: time.Now(),
	}
	go c.run(events)
	return c
}

func (c *ChurnRun) run(events []ChurnEvent) {
	defer close(c.done)
	start := time.Now()
	for _, ev := range events {
		wait := ev.At - time.Since(start)
		if wait > 0 {
			select {
			case <-c.quit:
				c.mu.Lock()
				c.finished = true
				c.mu.Unlock()
				return
			case <-time.After(wait):
			}
		}
		c.apply(ev)
	}
	c.mu.Lock()
	c.finished = true
	c.mu.Unlock()
}

func (c *ChurnRun) apply(ev ChurnEvent) {
	idx := int(ev.Node) - 1
	if idx < 0 || idx >= len(c.lc.Nodes) {
		c.note(fmt.Sprintf("churn: no node %d", ev.Node))
		return
	}
	node := c.lc.Nodes[idx]
	switch ev.Action {
	case ChurnKill:
		node.Crash()
		c.transition(func() { c.kills++; c.down[ev.Node] = true })
	case ChurnStop:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := node.Stop(ctx)
		cancel()
		if err != nil {
			c.note(fmt.Sprintf("churn: stop node %d: %v", ev.Node, err))
		}
		c.transition(func() { c.stops++; c.down[ev.Node] = true })
	case ChurnRestart:
		if err := node.Start(); err != nil {
			c.note(fmt.Sprintf("churn: restart node %d: %v", ev.Node, err))
			return
		}
		c.transition(func() { c.restarts++; delete(c.down, ev.Node) })
	}
}

func (c *ChurnRun) transition(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f()
	c.last = time.Now()
}

func (c *ChurnRun) note(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errs = append(c.errs, msg)
}

// Wait blocks until the schedule has fully run.
func (c *ChurnRun) Wait() { <-c.done }

// Cancel abandons not-yet-applied events (nodes already taken down stay
// down) and waits for the runner to exit.
func (c *ChurnRun) Cancel() {
	select {
	case <-c.quit:
	default:
		close(c.quit)
	}
	<-c.done
}

// Active reports whether churn can currently explain a failed request:
// some node is down, or a membership transition happened within the
// grace window (suspicion, deregistration, and repair all trail the
// event itself).
func (c *ChurnRun) Active(grace time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.down) > 0 || !c.finished || time.Since(c.last) < grace
}

// Summary snapshots the run's outcome.
func (c *ChurnRun) Summary() ChurnSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChurnSummary{
		Kills:        c.kills,
		Stops:        c.stops,
		Restarts:     c.restarts,
		Down:         len(c.down),
		AllRestarted: c.finished && len(c.down) == 0 && (c.kills+c.stops) > 0,
		Errs:         append([]string(nil), c.errs...),
	}
}

// The churn retry policy: a request that fails while churn can explain
// it (a member down, or a transition within the grace window) is
// re-issued against a live edge instead of counting as a failure. The
// budget outlasts kill + detection + restart comfortably. A digest
// mismatch is never excused: corrupt bytes fail the run at once.
const (
	churnRetryLimit = 60
	churnRetryDelay = 250 * time.Millisecond
	churnGrace      = 10 * time.Second
)

// replicationTarget is the in-process cluster's repair floor, pinned so
// the post-churn check tests against the same number the sweepers use.
const replicationTarget = 2

// churner runs a scenario's churn schedule (run is nil when the run has
// none) and paces and retries the requests issued under it.
type churner struct {
	lc      *server.LocalCluster
	spec    string
	run     *ChurnRun
	pace    time.Duration
	excused atomic.Uint64
}

// startChurner arms the -churn schedule. Closed-loop workers are paced
// so the request stream spans the whole schedule: an unpaced loopback
// run finishes in milliseconds and the kills would land on an idle
// cluster, proving nothing.
func startChurner(e *env) *churner {
	c := &churner{lc: e.lc, spec: e.Churn}
	if e.Churn == "" {
		return c
	}
	spec, _ := ParseChurnSpec(e.Churn) // Options.resolve rejected a bad spec
	events := spec.Events(e.Nodes, e.Seed)
	if len(events) > 0 && e.Requests > 0 {
		span := events[len(events)-1].At + 2*time.Second
		c.pace = span * time.Duration(e.Workers) / time.Duration(e.Requests)
	}
	c.run = StartChurn(e.lc, events)
	fmt.Printf("scdn-loadgen: churn schedule: %d events (%s)\n", len(events), e.Churn)
	return c
}

// live returns the running edges' URLs (a restarted member listens on a
// fresh port), or every URL when none is running.
func (c *churner) live() []string {
	var urls []string
	for _, nd := range c.lc.Nodes {
		if nd.Running() {
			urls = append(urls, nd.BaseURL())
		}
	}
	if len(urls) == 0 {
		return c.lc.URLs()
	}
	return urls
}

// do issues one request — f against the live edges — retrying it while
// churn can explain its failure.
func (c *churner) do(f func(live []string) error) error {
	for attempt := 0; ; attempt++ {
		err := f(c.live())
		if err == nil || errors.Is(err, ingest.ErrDigestMismatch) || c.run == nil ||
			attempt >= churnRetryLimit || !c.run.Active(churnGrace) {
			return err
		}
		c.excused.Add(1)
		time.Sleep(churnRetryDelay)
	}
}

// churnResult is what a churned run observed: the schedule's outcome,
// the retries churn excused, and whether repair restored the floor.
type churnResult struct {
	spec     string
	sum      ChurnSummary
	excused  uint64
	repaired bool
}

// settle lets the schedule finish (late restarts), then waits for the
// repair sweepers to bring every dataset back to the replication floor
// (capped at the live member count). It returns nil for a run without
// churn.
func (c *churner) settle() *churnResult {
	if c.run == nil {
		return nil
	}
	c.run.Wait()
	r := &churnResult{spec: c.spec, sum: c.run.Summary(), excused: c.excused.Load()}
	want := min(replicationTarget, c.lc.LiveNodes())
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(250 * time.Millisecond) {
		bad := 0
		for _, st := range c.lc.ReplicationStatus() {
			if st.Live < want {
				bad++
			}
		}
		if r.repaired = bad == 0; r.repaired || time.Now().After(deadline) {
			fmt.Printf("post-churn repair: %d datasets below %d live replicas\n", bad, want)
			break
		}
	}
	fmt.Printf("churn: kills=%d stops=%d restarts=%d still-down=%d excused-retries=%d\n",
		r.sum.Kills, r.sum.Stops, r.sum.Restarts, r.sum.Down, r.excused)
	return r
}

// check adds the mismatches every churned run shares: an event that
// failed to apply, or a dataset left under the floor.
func (r *churnResult) check(m *mismatches) {
	if r == nil {
		return
	}
	for _, e := range r.sum.Errs {
		m.check(false, "churn event error: %s", e)
	}
	m.check(r.repaired, "post-churn repair incomplete: datasets left below the replication floor")
}

// record shapes the churn section of a BENCH record (nil without churn).
func (r *churnResult) record(d Counters) *ChurnRecord {
	if r == nil {
		return nil
	}
	return &ChurnRecord{
		Spec:             r.spec,
		Kills:            r.sum.Kills,
		Restarts:         r.sum.Restarts,
		AllRestarted:     r.sum.AllRestarted,
		ExcusedFailures:  r.excused,
		DeadMembers:      d["scdn_repair_dead_members_total"],
		Readmissions:     d["scdn_repair_readmissions_total"],
		ReplicasRestored: d["scdn_repair_replicas_restored_total"],
		Churn503s:        d["scdn_churn_unavailable_total"],
	}
}

// churnMix is the churn scenario: closed-loop workers fetch whole,
// verified datasets from live edges while the -churn schedule crashes
// and restarts members. Closed loop is what churn pacing needs: each
// worker's requests are spread evenly across the kill schedule.
// Failures churn can explain are retried; the run passes only if the
// repair sweepers then restore every dataset to the replication floor.
func churnMix(ctx context.Context, e *env) (outcome, error) {
	c := startChurner(e)
	o := &churnOutcome{}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < e.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.Seed + int64(w)))
			tok := e.tokens[w%len(e.tokens)]
			for next.Add(1) <= int64(e.Requests) {
				time.Sleep(c.pace)
				ds := e.datasets[rng.Intn(len(e.datasets))]
				o.issued.Add(1)
				t0, first := time.Now(), true
				err := c.do(func(live []string) error {
					n, err := fetch(ctx, e.client, live[rng.Intn(len(live))], tok, ds, e.Bytes, true)
					if first { // latency is the first attempt's; retries are excused
						o.lat.Observe(time.Since(t0).Seconds())
						first = false
					}
					if err == nil {
						o.bytes.Add(n)
					}
					return err
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "scdn-loadgen: fetch %s: %v\n", ds, err)
					o.failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	o.elapsed = time.Since(start)
	o.churn = c.settle()
	fmt.Printf("%d workers × closed loop: %d requests, %d failed in %.2fs\n",
		e.Workers, o.issued.Load(), o.failed.Load(), o.elapsed.Seconds())
	return o, nil
}

type churnOutcome struct {
	issued, failed atomic.Uint64
	bytes          atomic.Int64
	lat            metrics.Histogram
	elapsed        time.Duration
	churn          *churnResult
}

// reconcile: exact fetch-count reconciliation is impossible when
// requests die mid-flight with their server, so every failure must be
// explained instead. Client side: zero unexcused failures. Server side:
// fetch failures can only be churn casualties, so they are bounded by
// the client's excused retries; and with every member back, the churn
// counters are fully scrapeable and must match the schedule exactly.
func (o *churnOutcome) reconcile(d Counters) []string {
	var m mismatches
	m.check(o.failed.Load() == 0, "%d requests failed", o.failed.Load())
	o.churn.check(&m)
	m.check(d["scdn_fetch_failures_total"] <= o.churn.excused,
		"%d cluster fetch failures exceed %d churn-excused client failures",
		d["scdn_fetch_failures_total"], o.churn.excused)
	if sum := o.churn.sum; sum.AllRestarted {
		m.check(d["scdn_churn_kills_total"] == uint64(sum.Kills),
			"cluster counted %d kills, churn injected %d", d["scdn_churn_kills_total"], sum.Kills)
		m.check(d["scdn_churn_restarts_total"] == uint64(sum.Restarts),
			"cluster counted %d restarts, churn applied %d", d["scdn_churn_restarts_total"], sum.Restarts)
	}
	return m
}

func (o *churnOutcome) record(e *env, d Counters, reconciled bool) any {
	secs := o.elapsed.Seconds()
	return DeliveryRecord{
		SchemaVersion: SchemaVersion,
		Host:          CurrentHost(),
		Mode:          "closed-loop",
		Workers:       e.Workers, Requests: int(o.issued.Load()),
		Edges: len(e.urls), Datasets: e.Datasets, BytesPerDataset: e.Bytes,
		PayloadMode:    e.payloadMode(),
		ElapsedSeconds: secs,
		ThroughputRPS:  float64(o.issued.Load()) / secs,
		ThroughputMBps: float64(o.bytes.Load()) / (1 << 20) / secs,
		LatencyMS:      o.lat.LatencyMS(),
		Failed:         o.failed.Load(),
		RangeRequests:  d["scdn_range_requests_total"],
		Reconciled:     reconciled,
		Churn:          o.churn.record(d),
	}
}
