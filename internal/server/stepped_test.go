package server

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"scdn/internal/availability"
	"scdn/internal/cdnclient"
	"scdn/internal/ingest"
	"scdn/internal/metrics"
	"scdn/internal/storage"
)

// steppedSeeds is how many seeds TestSteppedChurn runs, from seed 1.
// Tier-1 runs the default handful; the flake gate runs
// `-stepped-seeds 50`.
var steppedSeeds = flag.Int("stepped-seeds", 3, "seeds TestSteppedChurn runs")

// Shape of one stepped run: a day of 30-minute slots from the paper's
// diurnal availability traces, then a quiet tail in which membership
// holds still long enough for repair to settle.
const (
	steppedNodes  = 5
	steppedSlots  = 48
	steppedTarget = 2
)

// TestSteppedChurn drives a cluster through churn by steps, not
// timers. Node 1 is an institutional server that never goes down; the
// others follow seeded diurnal traces (internal/availability) at
// seeded time zones, so they crash and restart as researchers' machines
// do. Each slot applies the trace's transitions, runs seeded uploads
// and verified fetches through the running edges, then calls every
// running node's sweepOnce in a seeded order, the sweepers themselves
// being off. Now and then the only running holder of a dataset below
// its floor vanishes while a peer copies from it, as a browser peer
// that leaves mid-stream does. After every slot the invariants below
// must hold; a failure names its seed and slot.
func TestSteppedChurn(t *testing.T) {
	var copies uint64
	for seed := int64(1); seed <= int64(*steppedSeeds); seed++ {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			copies += runStepped(t, seed)
		})
	}
	if !t.Failed() && copies == 0 {
		t.Errorf("no repair copied bytes over %d seeds", *steppedSeeds)
	}
}

// stepped is one seeded run's state: the cluster, each node's trace and
// sweep state, the bytes every upload sent, and the driver's own counts
// of what it did, which the nodes' counters must equal.
type stepped struct {
	t        *testing.T
	seed     int64
	slot     int
	rng      *rand.Rand
	lc       *LocalCluster
	traces   []*availability.Trace
	states   []*sweepState
	client   *http.Client
	tok      string
	ids      []storage.DatasetID
	payloads map[storage.DatasetID][]byte
	// baseline holds the module's goroutines from before the cluster
	// started; root is the store root with symlinks resolved.
	baseline map[string]string
	root     string
	// changed is the last slot whose membership changed.
	changed int
	// The driver's counts.
	fetches, uploads, uploadBytes, kills, restarts, copies uint64
}

func runStepped(t *testing.T, seed int64) uint64 {
	baseline := moduleGoroutines()
	lc := startCluster(t, ClusterConfig{
		Nodes: steppedNodes, Users: 1, NoSeedDatasets: true, Seed: seed,
		// A dead member refuses the connection at once; a live one on
		// loopback never takes seconds, so no probe of a running node
		// times out, however loaded the host.
		Sweep: SweeperConfig{Disabled: true, ReplicationTarget: steppedTarget, ProbeTimeout: 10 * time.Second},
	})
	lc.Catalog.SetPolicy(steppedNodes, math.MaxUint64) // no demand placement: every copy is a repair
	tok, err := lc.Login(lc.UserIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.EvalSymlinks(lc.StoreRoot)
	if err != nil {
		t.Fatal(err)
	}
	d := &stepped{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), lc: lc,
		client: &http.Client{Timeout: 30 * time.Second}, tok: string(tok),
		payloads: make(map[storage.DatasetID][]byte), baseline: baseline, root: root,
	}
	defer d.client.CloseIdleConnections()
	d.traces = []*availability.Trace{availability.AlwaysOn(steppedSlots, 30*time.Minute)}
	for len(d.traces) < steppedNodes {
		d.traces = append(d.traces, availability.Generate(availability.DefaultDiurnal(d.rng.Intn(24)-12), d.rng))
	}
	for range lc.Nodes {
		d.states = append(d.states, newSweepState())
	}
	quiet := lc.Nodes[0].cfg.Sweep.FailThreshold + 1
	for d.slot = 0; d.slot < steppedSlots+quiet; d.slot++ {
		d.transitions()
		d.traffic()
		d.checkElection()
		d.sweeps()
		d.checkSlot(quiet)
	}
	// The day is over: every dataset with a running holder reads back
	// exactly as it was uploaded.
	d.slot--
	nodes, _ := d.running()
	for _, id := range d.ids {
		if _, live := d.liveHolders(id); live > 0 {
			d.get(nodes[d.rng.Intn(len(nodes))].BaseURL(), id, "", http.StatusOK, d.payloads[id])
		}
	}
	d.checkSlot(quiet)
	var failed uint64
	for _, n := range lc.Nodes {
		failed += n.Metrics.RepairFailures.Value()
	}
	t.Logf("%d uploads, %d fetch requests, %d kills, %d restarts, %d repair copies, %d failed repair pulls",
		d.uploads, d.fetches, d.kills, d.restarts, d.copies, failed)
	return d.copies
}

// fatalf fails the run, naming its seed and slot, with each node's
// state and each dataset's holders.
func (d *stepped) fatalf(format string, args ...any) {
	d.t.Helper()
	var state strings.Builder
	for _, n := range d.lc.Nodes {
		fmt.Fprintf(&state, "\nnode %d running %v, online %v", n.ID(), n.Running(), d.lc.Registry.Online(n.ID()))
	}
	for _, id := range d.ids {
		fmt.Fprintf(&state, "\n%s held by %v", id, d.lc.Catalog.AppendHolders(nil, id))
	}
	d.t.Fatalf("seed %d slot %d: %s%s", d.seed, d.slot, fmt.Sprintf(format, args...), state.String())
}

// online reports whether node i's trace has it up in the current slot;
// the quiet tail repeats the trace's last slot.
func (d *stepped) online(i int) bool {
	return d.traces[i].Online[min(d.slot, steppedSlots-1)]
}

// running lists the running nodes and their IDs.
func (d *stepped) running() (nodes []*Node, ids []storage.NodeID) {
	for _, n := range d.lc.Nodes {
		if n.Running() {
			nodes, ids = append(nodes, n), append(ids, n.ID())
		}
	}
	return nodes, ids
}

// liveHolders counts a dataset's holders that are running.
func (d *stepped) liveHolders(id storage.DatasetID) (holders []storage.NodeID, live int) {
	holders = d.lc.Catalog.AppendHolders(nil, id)
	for _, h := range holders {
		if d.lc.Nodes[h-1].Running() {
			live++
		}
	}
	return holders, live
}

// transitions crashes the nodes the trace takes down and starts the
// ones it brings up, each start with a fresh sweep state, as
// runSweeper makes one; after each the leak check runs.
func (d *stepped) transitions() {
	for i, n := range d.lc.Nodes {
		switch up := d.online(i); {
		case up && !n.Running():
			if err := n.Start(); err != nil {
				d.fatalf("start node %d: %v", n.ID(), err)
			}
			d.states[i] = newSweepState()
			d.restarts++
		case !up && n.Running():
			n.Crash()
			d.kills++
		default:
			continue
		}
		d.changed = d.slot
		d.checkLeaks()
	}
}

// checkLeaks is the check that nothing outlives its owner: past the
// baseline, the module's only goroutines are one Serve loop per running
// node, and every descriptor under the store root is a running node's.
func (d *stepped) checkLeaks() {
	d.t.Helper()
	d.quiesce()
	nodes, _ := d.running()
	serving := 0
	for id, stack := range moduleGoroutines() {
		switch _, old := d.baseline[id]; {
		case old, wakingQuiesce(stack):
		case strings.Contains(stack, "(*Node).Start.func"):
			serving++
		default:
			d.fatalf("goroutine outlived its owner:\n%s", stack)
		}
	}
	if serving != len(nodes) {
		d.fatalf("%d Serve goroutines for %d running nodes", serving, len(nodes))
	}
	fds, _ := os.ReadDir("/proc/self/fd") // where there is no procfs, nothing to check
	for _, fd := range fds {
		path, err := os.Readlink("/proc/self/fd/" + fd.Name())
		rel, under := strings.CutPrefix(path, d.root+"/node-")
		if err != nil || !under {
			continue
		}
		id, _, _ := strings.Cut(rel, "/")
		if node, err := strconv.Atoi(id); err != nil || !d.lc.Nodes[node-1].Running() {
			d.fatalf("descriptor %s outlived node %s: %s", fd.Name(), id, path)
		}
	}
}

func (d *stepped) quiesce() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.lc.Quiesce(ctx); err != nil {
		d.fatalf("quiesce: %v", err)
	}
}

// traffic runs the slot's seeded uploads (0-2, each striped 1-3 ways
// to a running origin) and four verified fetches.
func (d *stepped) traffic() {
	nodes, _ := d.running()
	for u := d.rng.Intn(3); u > 0; u-- {
		d.upload(nodes)
	}
	for f := 0; f < 4; f++ {
		d.fetch(nodes)
	}
}

func (d *stepped) upload(nodes []*Node) {
	id := storage.DatasetID(fmt.Sprintf("up-%03d", len(d.ids)+1))
	size := 1 + d.rng.Int63n(5*ingest.DefaultBlockSize)
	payload := make([]byte, size)
	d.rng.Read(payload)
	origin := nodes[d.rng.Intn(len(nodes))]
	opts := cdnclient.TransferOptions{Client: d.client, Endpoints: []string{origin.BaseURL()},
		Token: d.tok, Stripes: 1 + d.rng.Intn(3)}
	if _, err := cdnclient.Upload(context.Background(), opts, id, d.lc.Config.Group,
		bytes.NewReader(payload), size); err != nil {
		d.fatalf("upload %s to node %d: %v", id, origin.ID(), err)
	}
	d.ids = append(d.ids, id)
	d.payloads[id] = payload
	d.uploads++
	d.uploadBytes += uint64(size)
}

// fetch reads a dataset that has a running holder through a running
// edge, one of three ways: a striped, verified Download over one or
// two edges, a plain GET, or a ranged GET. Whatever comes back must be
// the uploaded bytes, exactly (a).
func (d *stepped) fetch(nodes []*Node) {
	var held []storage.DatasetID
	for _, id := range d.ids {
		if _, live := d.liveHolders(id); live > 0 {
			held = append(held, id)
		}
	}
	if len(held) == 0 {
		return
	}
	id := held[d.rng.Intn(len(held))]
	want := d.payloads[id]
	edge := nodes[d.rng.Intn(len(nodes))].BaseURL()
	switch d.rng.Intn(3) {
	case 0:
		man, ok := d.lc.Manifests.Get(id)
		if !ok {
			d.fatalf("(a) no manifest for %s", id)
		}
		endpoints := []string{edge, nodes[d.rng.Intn(len(nodes))].BaseURL()}[:1+d.rng.Intn(2)]
		got := make(bufferAt, len(want))
		res, err := cdnclient.Download(context.Background(), cdnclient.TransferOptions{Client: d.client,
			Endpoints: endpoints, Token: d.tok, Stripes: 1 + d.rng.Intn(3)}, man, got)
		d.fetches += uint64(len(res.Stripes))
		if err != nil || !bytes.Equal(got, want) {
			d.fatalf("(a) download of %s via %v: %v (bytes equal: %v)", id, endpoints, err, bytes.Equal(got, want))
		}
	case 1:
		d.get(edge, id, "", http.StatusOK, want)
	default:
		off := d.rng.Int63n(int64(len(want)))
		end := off + d.rng.Int63n(int64(len(want))-off)
		d.get(edge, id, fmt.Sprintf("bytes=%d-%d", off, end), http.StatusPartialContent, want[off:end+1])
	}
}

// get issues one GET of id through the edge and requires the status
// and exactly the bytes want.
func (d *stepped) get(edge string, id storage.DatasetID, rangeHdr string, status int, want []byte) {
	d.fetches++
	req, err := http.NewRequest(http.MethodGet, edge+"/v1/fetch/"+string(id), nil)
	if err != nil {
		d.fatalf("%v", err)
	}
	req.Header.Set("Authorization", "Bearer "+d.tok)
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		d.fatalf("(a) GET %s %q via %s: %v", id, rangeHdr, edge, err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != status || !bytes.Equal(got, want) {
		d.fatalf("(a) GET %s %q via %s: %s, %d bytes, err %v, bytes equal: %v",
			id, rangeHdr, edge, resp.Status, len(got), err, bytes.Equal(got, want))
	}
}

// bufferAt is a download destination; stripes write disjoint ranges.
type bufferAt []byte

func (b bufferAt) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(b)) {
		return 0, fmt.Errorf("write [%d, %d) outside %d bytes", off, off+int64(len(p)), len(b))
	}
	return copy(b[off:], p), nil
}

// checkElection is (b)'s half that a sequential driver cannot provoke:
// sweepers that race over the same catalog state must make each
// missing copy once. So before the sweeps, for every dataset below
// min(target, running), the election over the running members, as
// each of them will see it once it has probed, must designate exactly
// as many copiers as copies are missing.
func (d *stepped) checkElection() {
	_, view := d.running()
	floor := min(steppedTarget, len(view))
	patience := d.lc.Nodes[0].cfg.Sweep.FailThreshold
	for _, id := range d.ids {
		holders, live := d.liveHolders(id)
		if live >= floor {
			continue
		}
		elected := 0
		for _, self := range view {
			if designated(id, self, view, holders, floor, 1, patience) {
				elected++
			}
		}
		if elected != floor-live {
			d.fatalf("(b) %s has %d of %d live copies and elects %d copiers", id, live, floor, elected)
		}
	}
}

// sweeps calls every running node's sweepOnce in a seeded order, and
// counts the repair copies each one makes (b: none may push its dataset
// past min(target, running)). In some slots the only running holder of
// a dataset below its floor vanishes as soon as a peer starts to copy
// from it.
func (d *stepped) sweeps() {
	v := d.armVanish()
	for _, i := range d.rng.Perm(steppedNodes) {
		n := d.lc.Nodes[i]
		if v != nil && v.node == n {
			v.disarm(d) // a vanish never lands inside the node's own sweep
		}
		if !n.Running() {
			continue
		}
		before := make([]bool, len(d.ids))
		for j, id := range d.ids {
			before[j] = d.lc.Catalog.Holds(id, n.ID())
		}
		n.sweepOnce(context.Background(), d.states[i])
		for j, id := range d.ids {
			if before[j] || !d.lc.Catalog.Holds(id, n.ID()) {
				continue
			}
			d.copies++
			_, running := d.running()
			if _, live := d.liveHolders(id); live > min(steppedTarget, len(running)) {
				d.fatalf("(b) node %d's copy of %s makes %d live copies, over min(%d, %d running)",
					n.ID(), id, live, steppedTarget, len(running))
			}
		}
	}
	if v != nil {
		v.disarm(d)
	}
}

// vanish is an armed mid-stream departure: a watcher that crashes node
// as soon as a peer request reaches it.
type vanish struct {
	node *Node
	stop chan struct{}
	done chan bool // true once the watcher crashed the node
}

// armVanish picks, in one slot of five before the quiet tail, a
// dataset below its floor whose one running holder is not node 1 (the
// institutional node never goes down), and arms a watcher on that
// holder.
func (d *stepped) armVanish() *vanish {
	if d.slot >= steppedSlots || d.rng.Intn(5) != 0 {
		return nil
	}
	nodes, _ := d.running()
	var cands []*Node
	for _, id := range d.ids {
		holders, live := d.liveHolders(id)
		if live != 1 || len(nodes) < 2 {
			continue
		}
		for _, h := range holders {
			if n := d.lc.Nodes[h-1]; n.Running() && h != 1 {
				cands = append(cands, n)
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	v := &vanish{node: cands[d.rng.Intn(len(cands))], stop: make(chan struct{}), done: make(chan bool, 1)}
	base := v.node.Metrics.PeerFetchRequests.Value()
	go func(stop <-chan struct{}) {
		for v.node.Metrics.PeerFetchRequests.Value() == base {
			select {
			case <-stop:
				v.done <- false
				return
			default:
				runtime.Gosched()
			}
		}
		v.node.Crash()
		v.done <- true
	}(v.stop)
	return v
}

// disarm stops the watcher and, if it crashed its node, counts the
// kill as a membership change and runs the leak check. Idempotent.
func (v *vanish) disarm(d *stepped) {
	if v.stop == nil {
		return
	}
	close(v.stop)
	v.stop = nil
	if <-v.done {
		d.kills++
		d.changed = d.slot + 1 // the sweeps before the crash saw the node up
		d.checkLeaks()
	}
}

// checkSlot asserts, after the slot's sweeps: (c) once membership has
// held still for quiet slots, the registry lists exactly the running
// nodes online and every dataset with a running holder is back at its
// floor; (d) every catalog record on a running node has
// its bytes in the node's volume (every dataset here is an opaque
// upload, so none is regenerable); (e) the nodes' summed counters
// equal the driver's counts.
func (d *stepped) checkSlot(quiet int) {
	_, view := d.running()
	floor := min(steppedTarget, len(view))
	settled := d.slot-d.changed+1 >= quiet
	for _, n := range d.lc.Nodes {
		if settled && d.lc.Registry.Online(n.ID()) != n.Running() {
			d.fatalf("(c) node %d: online %v, running %v, %d slots after the last change",
				n.ID(), !n.Running(), n.Running(), d.slot-d.changed+1)
		}
	}
	for _, id := range d.ids {
		holders, live := d.liveHolders(id)
		if settled && live > 0 && live < floor {
			d.fatalf("(c) %s has %d live copies %d slots after the last change, floor %d",
				id, live, d.slot-d.changed+1, floor)
		}
		for _, h := range holders {
			if n := d.lc.Nodes[h-1]; n.Running() && !n.Volume().Has(id) {
				d.fatalf("(d) node %d holds %s in the catalog but not in its volume", h, id)
			}
		}
	}

	d.quiesce()
	want := []struct {
		name string
		n    uint64
	}{
		{"client fetches", d.fetches},
		{"fetch failures", 0},
		{"churn 503s", 0},
		{"uploads", d.uploads},
		{"upload bytes", d.uploadBytes},
		{"churn kills", d.kills},
		{"churn restarts", d.restarts},
		{"digest rejects", 0},
		{"repairs regenerated", 0},
		{"repair byte copies", d.copies},
		{"replicas restored", d.copies},
	}
	sums := make([]uint64, len(want))
	for _, n := range d.lc.Nodes {
		m := n.Metrics
		for i, c := range []*metrics.Counter{&m.FetchRequests, &m.FetchFailures, &m.ChurnUnavailable,
			&m.IngestUploads, &m.IngestUploadBytes, &m.ChurnKills, &m.ChurnRestarts,
			&m.IngestDigestRejects, &m.IngestRepairRegenerated, &m.IngestRepairCopies,
			&m.RepairReplicasRestored} {
			sums[i] += c.Value()
		}
	}
	for i, c := range want {
		if sums[i] != c.n {
			d.fatalf("(e) nodes count %d %s, the driver %d", sums[i], c.name, c.n)
		}
	}
}
