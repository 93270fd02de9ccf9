// Command perfbench is the repository benchmark for the S-CDN delivery
// plane. It starts a 3-edge disk-backed cluster in-process on loopback
// TCP, drives it with closed-loop clients replaying a seeded op list,
// checks every byte of every response, reconciles the edges' own counts
// against what the clients sent, and prints the metrics as one JSON
// line.
//
// Usage, from the repository root:
//
//	sh perfbench/run.sh --workload small_read --seed 1 --seconds 10 --trace 0
//
// Workloads are small_read (per-request cost), large_stream (the byte
// path) and ingest_mixed (uploads beside reads). With --trace 0 the
// run reports the end-to-end metrics; with --trace 1 it reports the
// per-layer metrics from a separate traced phase and writes its spans
// under .bench_build/perfbench-trace/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// repsPerRun is how many times a run sets a cluster up and measures it,
// each time for an equal share of --seconds. setup_s is the median
// set-up; the other metrics pool the repetitions' ops. Short
// repetitions on fresh clusters also let ingest_mixed replay its fixed
// upload list in each one.
const repsPerRun = 5

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "small_read, large_stream or ingest_mixed")
	seed := flag.Int64("seed", 1, "seed of the op list")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload small_read|large_stream|ingest_mixed, --seconds >= 1, --trace 0|1")
		return 2
	}
	res, info, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, v := range []any{info, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runInfo is printed on the line before the result: where the run was
// taken and, for untraced runs, the process's own counts per op.
type runInfo struct {
	Host   hostBlock         `json:"host"`
	Counts map[string]metric `json:"counts,omitempty"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(w *workload, seed int64, d time.Duration, traced bool) (*result, *runInfo, error) {
	clients := min(2, runtime.NumCPU())
	cp := newCorpus(w)
	plan, err := buildPlan(w, seed, cp.holders)
	if err != nil {
		return nil, nil, err
	}
	base := filepath.Join(".bench_build", "perfbench-store", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(base)
	info := &runInfo{Host: newHostBlock(clients)}
	host := &info.Host
	var (
		phases    []*phaseResult
		setupSecs []float64
	)
	reps := repsPerRun
	if traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		runtime.GC() // no garbage of the last repetition is collected in this one
		start := time.Now()
		e, err := setup(w, cp, filepath.Join(base, fmt.Sprint(i)), clients)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		host.StoreFS = fsType(e.storeDir)
		r := &runner{e: e, plan: plan, clients: clients, epoch: time.Now()}
		if traced {
			res, tr, err := traceRun(r, d, host)
			e.close()
			if err == nil {
				err = writeSpans(filepath.Join(".bench_build", "perfbench-trace",
					fmt.Sprintf("%s-seed%d.tsv", w.name, seed)), tr.spans, tr.self)
			}
			return res, info, err
		}
		ph, err := r.phase(d/time.Duration(reps), int64(len(plan)), false)
		e.close()
		if err != nil {
			return nil, nil, err
		}
		phases = append(phases, ph)
	}
	res := &result{Correct: true}
	var before, after procSample
	for _, ph := range phases {
		res.Attempted += ph.attempted()
		res.Failed += ph.failed()
		res.Correct = res.Correct && ph.err == nil
		before.add(ph.procBefore)
		after.add(ph.procAfter)
	}
	host.StealPct = stealPct(before, after)
	info.Counts = procMetrics(before, after, okOps(phases))
	res.Metrics = endToEnd(w, phases)
	res.Metrics["setup_s"] = metric{median(setupSecs), "s"}
	return res, info, nil
}

// traceRun is the traced run on one set-up: an untraced half, the
// baseline for trace overhead and the source of the runtime, process
// and host counts, then a traced half for everything else.
func traceRun(r *runner, d time.Duration, host *hostBlock) (*result, *phaseResult, error) {
	plain, err := r.phase(d/2, int64(len(r.plan)/2), false)
	if err != nil {
		return nil, nil, err
	}
	tr, err := r.phase(d/2, int64(len(r.plan)), true)
	if err != nil {
		return nil, nil, err
	}
	host.StealPct = stealPct(plain.procBefore, plain.procAfter)
	res := tr.result()
	res.Attempted += plain.attempted()
	res.Failed += plain.failed()
	res.Correct = res.Correct && plain.err == nil
	res.Metrics = perLayer(plain, tr)
	return res, tr, nil
}

// record is one op's outcome. Times are ns since the run's epoch.
type record struct {
	idx               int64
	start, first, end int64
	bytes             int64
	kind              opKind
	holder, failed    bool
}

type runner struct {
	e       *env
	plan    []op
	clients int
	epoch   time.Time
	next    atomic.Int64 // next op index; phases continue the sequence
}

// phaseResult is one measured phase: every op's record in index order,
// the requests sent, and the edge, process and host counts read
// immediately before and after it.
type phaseResult struct {
	recs                  []record
	start, end            int64
	issued                reqCounts
	before, after         nodeCounts
	procBefore, procAfter procSample
	err                   error // first op failure, reconciliation or probe error
	spans                 []spanRec
	self                  map[int64]int64
	newConns              int
	samples               map[string][]float64
}

// phase runs the closed loop for d: each client takes the next op
// index from the shared sequence, runs it, and only then takes another.
// The phase also ends once the op index reaches limit, for plans that do
// not repeat.
func (r *runner) phase(d time.Duration, limit int64, traced bool) (*phaseResult, error) {
	e := r.e
	cs := make([]*client, r.clients)
	recs := make([][]record, r.clients)
	for c := range cs {
		cs[c] = newClient(e, c)
		cs[c].br.timed = traced
		if traced {
			t, err := newTracer(e, c, r.epoch)
			if err != nil {
				return nil, err
			}
			cs[c].tr = t
		}
	}
	ph := &phaseResult{samples: make(map[string][]float64), before: e.counts(), procBefore: takeProcSample()}
	start := time.Now()
	deadline := start.Add(d)
	ph.start = start.Sub(r.epoch).Nanoseconds()
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
	)
	ctx := context.Background()
	for c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				idx := r.next.Add(1) - 1
				if !e.w.cyclic && idx >= limit {
					return
				}
				o := &r.plan[idx%int64(len(r.plan))]
				t0 := time.Now()
				if c.tr != nil {
					c.tr.beginOp(idx, o, t0)
				}
				n, first, err := c.do(ctx, idx, o)
				t1 := time.Now()
				if first.IsZero() {
					first = t1
				}
				if c.tr != nil {
					c.tr.endOp(t1)
					if err == nil && idx%e.w.probeEvery == 0 {
						c.tr.probe(c, idx, o)
					}
				}
				if err != nil {
					errOnce.Do(func() { ph.err = err })
				}
				recs[c.id] = append(recs[c.id], record{
					idx: idx, start: t0.Sub(r.epoch).Nanoseconds(), first: first.Sub(r.epoch).Nanoseconds(),
					end: t1.Sub(r.epoch).Nanoseconds(), bytes: n, kind: o.kind, holder: o.holder, failed: err != nil,
				})
			}
		}(cs[c])
	}
	wg.Wait()
	ph.end = time.Since(r.epoch).Nanoseconds()
	ph.procAfter = takeProcSample()
	ph.after = e.counts()
	for c, cl := range cs {
		ph.recs = append(ph.recs, recs[c]...)
		ph.issued.add(cl.n)
		if cl.tr != nil {
			ph.spans = append(ph.spans, cl.tr.spans...)
			ph.newConns += cl.tr.newConns
			for k, v := range cl.tr.samples {
				ph.samples[k] = append(ph.samples[k], v...)
			}
			if cl.tr.err != nil && ph.err == nil {
				ph.err = cl.tr.err
			}
		}
	}
	sort.Slice(ph.recs, func(i, j int) bool { return ph.recs[i].idx < ph.recs[j].idx })
	if traced {
		ph.self = selfTimes(ph.spans)
	}
	if ph.err == nil {
		ph.err = reconcile(ph.after.sub(ph.before), ph.issued)
	}
	if ph.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", ph.err)
	}
	if len(ph.recs) == 0 {
		return nil, fmt.Errorf("no op completed in %v", d)
	}
	return ph, nil
}

func (ph *phaseResult) attempted() int64 { return int64(len(ph.recs)) }

func (ph *phaseResult) failed() int64 {
	var n int64
	for _, r := range ph.recs {
		if r.failed {
			n++
		}
	}
	return n
}

func (ph *phaseResult) result() *result {
	return &result{Correct: ph.err == nil, Attempted: ph.attempted(), Failed: ph.failed()}
}

func (ph *phaseResult) seconds() float64 { return float64(ph.end-ph.start) / 1e9 }

// okOps counts completed, verified ops.
func (ph *phaseResult) okOps() int64 { return ph.attempted() - ph.failed() }

// latencies returns the sorted latency and time-to-first-byte of every
// verified op of the phases, in ms.
func latencies(phs ...*phaseResult) (lat, ttfb []float64) {
	for _, ph := range phs {
		for _, r := range ph.recs {
			if !r.failed {
				lat = append(lat, float64(r.end-r.start)/1e6)
				ttfb = append(ttfb, float64(r.first-r.start)/1e6)
			}
		}
	}
	sort.Float64s(lat)
	sort.Float64s(ttfb)
	return lat, ttfb
}

// throughput is ops and payload MB per second: the median over plan
// rounds, each timed from the completion of the round before. Every
// round does the same mix of work, and a round is short (milliseconds
// on small_read), so the median reads the system's rate rather than
// the stretches where the host took its CPUs away. With fewer than
// three rounds it falls back to the totals.
func throughput(w *workload, phs []*phaseResult) (opsPerS, mbPerS float64) {
	var ops, mbs []float64
	var okOps, bytes int64
	var secs float64
	for _, ph := range phs {
		prev, last := ph.start, ph.start
		var n, b int64 // verified ops and bytes since prev
		for k, r := range ph.recs {
			last = max(last, r.end)
			if !r.failed {
				n, b = n+1, b+r.bytes
				okOps, bytes = okOps+1, bytes+r.bytes
			}
			// A round that ended no later than the one before joins the
			// next.
			if (k+1)%w.round == 0 && last > prev {
				dt := float64(last-prev) / 1e9
				ops = append(ops, float64(n)/dt)
				mbs = append(mbs, float64(b)/1e6/dt)
				n, b, prev = 0, 0, last
			}
		}
		secs += ph.seconds()
	}
	if len(ops) < 3 {
		return float64(okOps) / secs, float64(bytes) / 1e6 / secs
	}
	return median(ops), median(mbs)
}

func endToEnd(w *workload, phs []*phaseResult) map[string]metric {
	lat, ttfb := latencies(phs...)
	ops, mbs := throughput(w, phs)
	var cpuNs int64
	for _, ph := range phs {
		cpuNs += ph.procAfter.cpuNs - ph.procBefore.cpuNs
	}
	return map[string]metric{
		"ops_per_s":     {ops, "1/s"},
		"mb_per_s":      {mbs, "MB/s"},
		"p50_ms":        {quantile(lat, 0.5), "ms"},
		"p90_ms":        {quantile(lat, 0.9), "ms"},
		"ttfb_p50_ms":   {quantile(ttfb, 0.5), "ms"},
		"cpu_ms_per_op": {float64(cpuNs) / 1e6 / float64(max(okOps(phs), 1)), "ms"},
	}
}

// perLayer derives the per-layer metrics of a traced run. plain is the
// untraced half (the baseline for trace overhead, and the source of the
// runtime, process and host counts); tr is the traced half.
func perLayer(plain, tr *phaseResult) map[string]metric {
	ops := float64(max(tr.okOps(), 1))
	dc := tr.after.sub(tr.before)

	// Durations (self time) of spans by name, in µs; requests split by
	// whether they were data requests at the holder or at a peer.
	names := make(map[int64]string, len(tr.spans))
	for _, s := range tr.spans {
		names[s.id] = s.name
	}
	us := make(map[string][]float64)
	waitBy := make(map[[2]int][]float64) // (kind, holder) → server wait µs
	var uploadWait, uploadOps []float64
	for _, s := range tr.spans {
		v := float64(tr.self[s.id]) / 1e3
		switch s.name {
		case "client.server_wait":
			if s.kind == opUpload {
				uploadWait = append(uploadWait, v)
				continue
			}
			if names[s.parent] != "http.fetch" {
				continue // resolve requests
			}
			k := [2]int{int(s.kind), b2i(s.holder)}
			waitBy[k] = append(waitBy[k], v)
		case "op":
			if s.kind == opUpload {
				uploadOps = append(uploadOps, float64(s.end-s.start)/1e6)
			}
		}
		us[s.name] = append(us[s.name], v)
	}
	med := func(name string) float64 { return median(us[name]) }
	var hitWait, allWait []float64
	for k, v := range waitBy {
		allWait = append(allWait, v...)
		if k[1] == 1 {
			hitWait = append(hitWait, v...)
		}
	}
	open := med("storage.open_release") + med("storage.segment_open_release")
	lat, _ := latencies(tr)

	m := map[string]metric{
		"client.conn_wait_us":   {med("client.conn_wait"), "us"},
		"client.new_conns":      {float64(tr.newConns), "count"},
		"client.server_wait_us": {median(allWait), "us"},
		"client.body_us":        {med("client.body"), "us"},
		"client.verify_us":      {med("client.verify"), "us"},
		"client.p99_ms":         {quantile(lat, 0.99), "ms"},

		"middleware.authorize_us":  {med("middleware.authorize"), "us"},
		"catalog.dataset_bytes_us": {med("catalog.dataset_bytes"), "us"},
		"catalog.resolve_us":       {med("catalog.resolve"), "us"},
		"catalog.replicas_us":      {med("catalog.replicas"), "us"},
		"catalog.scan_ms":          {med("catalog.scan") / 1e3, "ms"},
		"catalog.register_us":      {med("catalog.register"), "us"},

		"storage.open_release_us":           {med("storage.open_release"), "us"},
		"storage.segment_open_release_us":   {med("storage.segment_open_release"), "us"},
		"storage.fadvise_sequential_per_op": {float64(dc.fadviseSeq) / ops, "1/op"},
		"storage.fadvise_dontneed_per_op":   {float64(dc.fadviseDontNeed) / ops, "1/op"},
		"storage.materialize_ms_per_mib":    {median(tr.samples["storage.materialize_ms_per_mib"]), "ms/MiB"},
		"storage.materializations":          {float64(dc.materializations), "count"},
		"storage.spill_commit_ms":           {med("storage.spill_commit") / 1e3, "ms"},

		"server.peer_hop_us":             {peerHop(waitBy), "us"},
		"server.peer_hops_per_op":        {float64(dc.peerFetch+dc.peerSegFetch) / ops, "1/op"},
		"server.local_hits_per_op":       {float64(dc.localHits) / ops, "1/op"},
		"server.segmented_serves_per_op": {float64(dc.segmentedServes) / ops, "1/op"},
		"server.range_multipart_per_op":  {float64(dc.rangeMultipart) / ops, "1/op"},
		"server.peer_retries":            {float64(dc.peerRetries), "count"},
		"server.unattributed_us": {median(hitWait) - med("middleware.authorize") -
			med("catalog.dataset_bytes") - open, "us"},
		"server.sweeps_per_s":  {float64(dc.sweeps) / tr.seconds(), "1/s"},
		"server.repair_copies": {float64(dc.repairCopies), "count"},

		"ingest.hash_mb_per_s":    {median(tr.samples["ingest.hash_mb_per_s"]), "MB/s"},
		"ingest.verify_mb_per_s":  {median(tr.samples["ingest.verify_mb_per_s"]), "MB/s"},
		"cdnclient.upload_ms":     {median(uploadOps), "ms"},
		"ingest.upload_server_ms": {median(uploadWait) / 1e3, "ms"},
		"ingest.digest_rejects":   {float64(dc.digestRejects), "count"},

		"host.steal_pct":     {stealPct(plain.procBefore, plain.procAfter), "%"},
		"trace.overhead_pct": {traceOverhead(plain, tr), "%"},
	}
	for k, v := range procMetrics(plain.procBefore, plain.procAfter, plain.okOps()) {
		m[k] = v
	}
	return m
}

// procMetrics is the runtime and process counts between two samples,
// per verified op.
func procMetrics(b, a procSample, ops int64) map[string]metric {
	n := float64(max(ops, 1))
	return map[string]metric{
		"runtime.allocs_per_op":      {float64(a.mallocs-b.mallocs) / n, "1/op"},
		"runtime.alloc_bytes_per_op": {float64(a.allocBytes-b.allocBytes) / n, "B/op"},
		"runtime.gc_per_kop":         {float64(a.numGC-b.numGC) * 1e3 / n, "1/kop"},
		"proc.syscalls_per_op":       {float64(a.syscalls-b.syscalls) / n, "1/op"},
	}
}

func okOps(phs []*phaseResult) int64 {
	var n int64
	for _, ph := range phs {
		n += ph.okOps()
	}
	return n
}

// traceOverhead compares traced with untraced median latency, op shape
// by op shape (kind, and holder or peer hop), weighted by the traced
// op count of each shape, so the two halves' different op mixes do not
// read as overhead.
func traceOverhead(plain, tr *phaseResult) float64 {
	byShape := func(ph *phaseResult) map[[2]int][]float64 {
		m := make(map[[2]int][]float64)
		for _, r := range ph.recs {
			if !r.failed {
				k := [2]int{int(r.kind), b2i(r.holder)}
				m[k] = append(m[k], float64(r.end-r.start))
			}
		}
		return m
	}
	p, t := byShape(plain), byShape(tr)
	var num, den float64
	for k, tv := range t {
		pv, ok := p[k]
		if !ok {
			continue
		}
		n := float64(len(tv))
		num += n * median(tv)
		den += n * median(pv)
	}
	if den == 0 {
		return 0
	}
	return 100 * (num/den - 1)
}

// peerHop is server wait at a non-holder minus server wait at the
// holder for the same op shape, taken on the shape with the most
// peer-hop samples.
func peerHop(waitBy map[[2]int][]float64) float64 {
	best, n := -1, 0
	for k, v := range waitBy {
		if k[1] == 0 && len(v) > n && len(waitBy[[2]int{k[0], 1}]) > 0 {
			best, n = k[0], len(v)
		}
	}
	if best < 0 {
		return 0
	}
	return median(waitBy[[2]int{best, 0}]) - median(waitBy[[2]int{best, 1}])
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// quantile returns the q-quantile of sorted values by the nearest-rank
// method, 0 for none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
