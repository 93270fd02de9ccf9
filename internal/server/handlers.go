package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"scdn/internal/ingest"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
)

// Handler returns the node's HTTP API.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/login", n.handleLogin)
	mux.HandleFunc("POST /v1/resolve", n.handleResolve)
	mux.HandleFunc("GET /v1/fetch/{dataset}", n.handleFetch)
	mux.HandleFunc("GET /v1/fetch/{dataset}/segments/{n}", n.handleFetchSegment)
	mux.HandleFunc("PUT /v1/datasets/{dataset}", n.handleUpload)
	mux.HandleFunc("POST /v1/report", n.handleReport)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	return mux
}

// bearerToken extracts the session token from the Authorization header.
func bearerToken(r *http.Request) socialnet.Token {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if strings.HasPrefix(h, prefix) {
		return socialnet.Token(h[len(prefix):])
	}
	return ""
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (n *Node) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (n *Node) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	n.mu.Lock()
	up := time.Since(n.started)
	n.mu.Unlock()
	_ = n.Metrics.WriteExposition(w, up)
}

func (n *Node) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req LoginRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad login body: %w", err))
		return
	}
	tok, err := n.auth.Login(socialnet.UserID(req.User))
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	n.Metrics.Logins.Inc()
	writeJSON(w, http.StatusOK, LoginResponse{Token: string(tok)})
}

func (n *Node) handleResolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	n.Metrics.ResolveRequests.Inc()
	defer func() { n.Metrics.ResolveLatency.Observe(time.Since(start).Seconds()) }()
	var req ResolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad resolve body: %w", err))
		return
	}
	id := storage.DatasetID(req.Dataset)
	user, err := n.auth.Authorize(bearerToken(r), id)
	if err != nil {
		n.Metrics.AuthDenied.Inc()
		writeError(w, http.StatusForbidden, err)
		return
	}
	rep, ok, err := n.catalog.Resolve(id, storage.NodeID(user))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if !ok {
		n.Metrics.ResolveMisses.Inc()
		w.Header().Set("Retry-After", retryAfterHeader)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("server: no online replica for %q", id))
		return
	}
	// Resolve found the record, and a record is never removed.
	bytes, _ := n.catalog.DatasetBytes(id)
	origin, _ := n.catalog.Origin(id)
	peerURL, _ := n.registry.BaseURL(rep.Node)
	// List every online holder with an endpoint so striped clients can
	// spread range fetches across replica holders (GridFTP-style).
	var holders []ReplicaInfo
	all, _ := n.catalog.Replicas(id)
	for _, hr := range all {
		if !n.isLive(hr.Node) {
			continue
		}
		hu, _ := n.registry.BaseURL(hr.Node)
		holders = append(holders, ReplicaInfo{
			Node: hr.Node, Site: hr.Site, URL: hu, Origin: hr.Node == origin,
		})
	}
	resp := ResolveResponse{
		Dataset:  req.Dataset,
		Node:     rep.Node,
		Site:     rep.Site,
		URL:      peerURL,
		Origin:   rep.Node == origin,
		Bytes:    bytes,
		Replicas: holders,
	}
	// Segmented datasets publish their segment geometry, which is what a
	// client needs to address GET /v1/fetch/{dataset}/segments/{n}.
	if n.segmented(bytes) {
		resp.SegmentSize = n.cfg.SegmentSize
		resp.Segments = storage.SegmentCount(bytes, n.cfg.SegmentSize)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (n *Node) handleReport(w http.ResponseWriter, r *http.Request) {
	if _, err := n.auth.Authenticate(bearerToken(r)); err != nil {
		n.Metrics.AuthDenied.Inc()
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	var req ReportRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad report body: %w", err))
		return
	}
	n.Metrics.Reports.Inc()
	n.Metrics.ReportedAccesses.Add(req.Accesses)
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleFetch(w http.ResponseWriter, r *http.Request) { n.serveFetch(w, r, false) }

func (n *Node) handleFetchSegment(w http.ResponseWriter, r *http.Request) { n.serveFetch(w, r, true) }

// serveFetch answers both fetch routes: GET /v1/fetch/{dataset}, whole
// or as the windows of a Range header, and
// GET /v1/fetch/{dataset}/segments/{n}, one segment's window as a plain
// 200 (the HLS-style chunk surface). segment selects only the route's
// metrics, how the window is named, and the peer hop's path; one rule
// set serves the window after that.
func (n *Node) serveFetch(w http.ResponseWriter, r *http.Request, segment bool) {
	start := time.Now()
	m := n.Metrics
	requests, peerRequests, failures, latency := &m.FetchRequests, &m.PeerFetchRequests, &m.FetchFailures, &m.FetchLatency
	if segment {
		requests, peerRequests, failures, latency = &m.SegmentFetchRequests, &m.PeerSegmentFetchRequests,
			&m.SegmentFetchFailures, &m.SegmentFetchLatency
	}
	id := storage.DatasetID(r.PathValue("dataset"))
	fromPeer := r.Header.Get(peerHeader) != ""
	if fromPeer {
		peerRequests.Inc()
	} else {
		requests.Inc()
		defer func() { latency.Observe(time.Since(start).Seconds()) }()
	}
	fail := func(status int, err error) {
		if !fromPeer {
			failures.Inc()
		}
		writeError(w, status, err)
	}
	if _, err := n.auth.Authorize(bearerToken(r), id); err != nil {
		m.AuthDenied.Inc()
		fail(http.StatusForbidden, err)
		return
	}
	total, err := n.catalog.DatasetBytes(id)
	if err != nil {
		fail(http.StatusNotFound, err)
		return
	}
	var buf [maxRangeParts]byteRange
	var rngs []byteRange
	var isRange bool
	var seg int64
	if segment {
		if !n.segmented(total) {
			fail(http.StatusNotFound, fmt.Errorf("server: dataset %q is not segmented", id))
			return
		}
		count := storage.SegmentCount(total, n.cfg.SegmentSize)
		if seg, err = strconv.ParseInt(r.PathValue("n"), 10, 64); err != nil || seg < 0 || seg >= count {
			fail(http.StatusNotFound,
				fmt.Errorf("server: segment %q of %q outside [0, %d)", r.PathValue("n"), id, count))
			return
		}
		rngs = append(buf[:0], byteRange{off: seg * n.cfg.SegmentSize,
			n: storage.SegmentExtent(total, n.cfg.SegmentSize, seg)})
	} else if rngs, isRange, err = parseRanges(buf[:0], r.Header.Get("Range"), total); err != nil {
		// Malformed or unsatisfiable ranges (any part of a multipart
		// spec) are rejected here with 416 — never silently answered
		// with the full body — and never forwarded to a peer.
		m.RangeNotSatisfiable.Inc()
		w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", total))
		fail(http.StatusRequestedRangeNotSatisfiable, err)
		return
	}
	held := n.catalog.Holds(id, n.cfg.Node)
	last := rngs[len(rngs)-1]
	if src, ok := n.localSource(id, total, rngs[0].off, last.off+last.n, held); ok {
		n.writeRanges(w, r, &src, rngs, isRange, total)
		n.releasePiece(&src)
		return
	}
	if held {
		// The local claim was a lie: an opaque dataset whose volume file
		// is gone cannot be regenerated. Withdraw the stale record so
		// resolution stops routing here (best effort: the catalog never
		// deregisters an origin), then fall through to the peer path —
		// a surviving holder still has the real bytes.
		_ = n.catalog.RemoveReplica(id, n.cfg.Node)
	}
	if fromPeer {
		// Peer hops never fan out again: a fallback chain is one hop.
		fail(http.StatusNotFound, fmt.Errorf("server: node %d does not hold %q", n.cfg.Node, id))
		return
	}
	origin, _ := n.catalog.Origin(id) // DatasetBytes found the record
	// Built only now, so a local serve allocates nothing. A segment hop
	// keeps its route; ranges are forwarded as ranges, so a proxied
	// stripe moves only its own bytes, and a multipart set is relayed as
	// the peer framed it, so its length is the peer's and payload counts
	// the windows inside that framing.
	win := rngs[0]
	pull := peerPull{relayRequest: relayRequest{method: r.Method, path: fetchPath(id),
		auth: r.Header.Get("Authorization"), peer: n.srcID}, status: http.StatusOK, length: win.n}
	payload := win.n
	switch {
	case segment:
		pull.path += "/segments/" + strconv.FormatInt(seg, 10)
	case isRange:
		pull.rangeHdr, pull.status = rangesHeader(rngs), http.StatusPartialContent
		if len(rngs) > 1 {
			pull.length, payload = -1, 0
			for _, rng := range rngs {
				payload += rng.n
			}
		}
	}
	// Pull-through adopts only a named window, the whole dataset or one
	// segment: a stripe proves nothing about the rest of its segments,
	// and a HEAD moves no bytes at all.
	adopt := n.cfg.PullThrough && !isRange && r.Method != http.MethodHead
	var sink *spillWriter
	if adopt {
		sink = n.pullSink(id, total, win.off, win.off+win.n)
	}
	// The first good answer goes out to the client as the holder framed
	// it, naming the holder; once its head is written there is no
	// retrying.
	done, err := n.pullFromPeers(r.Context(), id, &pull, func(holder storage.NodeID, rc *relayConn, resp *http.Response) (bool, error) {
		h := w.Header()
		for _, k := range relayHeaders {
			if v := resp.Header[k]; v != nil {
				h[k] = v
			}
		}
		h["X-Scdn-Source"] = []string{strconv.FormatInt(int64(holder), 10)}
		w.WriteHeader(pull.status)
		head := r.Method == http.MethodHead
		var written int64
		var err error
		switch {
		case head:
		case sink == nil:
			written, err = rc.relayBody(w, resp.ContentLength)
		default:
			written, err = copyBuffered(io.MultiWriter(w, sink), resp.Body)
		}
		// BytesServed counts payload, as the holder does: a relayed
		// multipart answer's framing is left out.
		n.Metrics.BytesServed.Add(uint64(max(0, written-(resp.ContentLength-payload))))
		if err == nil && !head && written != resp.ContentLength {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			failures.Inc()
			return true, err
		}
		if holder == origin {
			n.Metrics.OriginFetches.Inc()
		} else {
			n.Metrics.PeerHits.Inc()
		}
		return true, nil
	})
	switch {
	case errors.Is(err, errNoLiveHolder):
		n.serveUnavailable(w, id)
	case !done:
		fail(http.StatusBadGateway, err)
	}
	flat, rejected := sink.finish()
	// The replica record announces a copy of the whole dataset, so a
	// segment never mints one, and neither do peer bytes that failed
	// their digest. A seeded dataset whose spill failed otherwise is
	// still a holder — its bytes are materialized from the generator on
	// the next local hit — but an opaque dataset has no generator, so
	// its record exists only when digest-verified bytes committed as
	// one whole file. A refusal (a racing fetch already registered us)
	// is an expected outcome.
	if done && err == nil && adopt && win.n == total && (flat || !rejected && !n.opaque(id)) {
		_ = n.catalog.AddReplica(id, n.cfg.Node)
	}
}

// fetchPath is the dataset's fetch route on a peer.
func fetchPath(id storage.DatasetID) string { return "/v1/fetch/" + url.PathEscape(string(id)) }

// opaque reports whether the dataset is an upload whose bytes exist
// only as real files: they are never synthesized. It derives no
// manifest.
func (n *Node) opaque(id storage.DatasetID) bool {
	_, ok := n.manifests.Opaque(id)
	return ok
}

// fetchSource is a local serve's walk over the dataset's pieces: the
// whole-replica entry when the volume has one, else the segments of the
// segmented layout. It holds piece idx open through h; a nil h means
// that piece comes from gen, the generator block, because the volume
// cannot hold it. derive allows materializing a missing piece and the
// generator. A struct rather than an interface or closure so the warm
// serve path allocates nothing.
type fetchSource struct {
	id           storage.DatasetID
	total, piece int64 // dataset size; piece size: the segment size, else total
	segs, derive bool
	idx          int64 // the open piece; -1 when none is
	h            *storage.Handle
	gen          payload
}

// localSource opens the first piece of the dataset window [off, end).
// held says this edge is a catalogued holder: only a holder derives
// bytes (materializes a replica or segment, or runs the generator), and
// never for an opaque dataset. Anyone else serves only a window inside
// one resident piece, which the open handle keeps readable even if the
// piece is evicted before the walk reaches it. Segments materialize on
// demand, so a quota-constrained edge still serves datasets bigger than
// its volume, and the generator derives any piece the volume cannot
// hold, so a fetch never fails just because a disk is full. The serve
// releases the last piece (releasePiece).
func (n *Node) localSource(id storage.DatasetID, total, off, end int64, held bool) (fetchSource, bool) {
	src := fetchSource{id: id, total: total, piece: total, derive: held && !n.opaque(id)}
	// Every entry has its catalog size: Start drops any other
	// (reconcileVolume), and every writer commits exact extents.
	if n.openHandle(&src, 0) {
		return src, true
	}
	if src.segs = n.segmented(total); src.segs {
		src.piece = n.cfg.SegmentSize
	}
	i := off / src.piece
	return src, (src.derive || end <= (i+1)*src.piece) && n.openPiece(&src, i)
}

// copyRange writes the dataset window [off, off+length) of src to dst
// piece by piece, each the open one or opened now (openPiece). A
// segment streamed end to end has its page cache dropped behind the
// copy (posix_fadvise DONTNEED) unless Config.KeepSegmentPages: one
// giant transfer must not evict the warm small-object working set. The
// scratch lends its LimitedReader, which net/http unwraps so a file
// window rides sendfile, and a multipart partWriter reads straight into
// its buffer — either way without allocating.
func (n *Node) copyRange(dst io.Writer, sc *fetchScratch, src *fetchSource, off, length int64) (written int64, _ error) {
	for length > 0 {
		i := off / src.piece
		if i != src.idx && !n.openPiece(src, i) {
			return written, errSegment
		}
		pieceOff := off - i*src.piece
		extent := storage.SegmentExtent(src.total, src.piece, i)
		chunk := min(extent-pieceOff, length)
		var m int64
		var err error
		if src.h == nil {
			m, err = copyBuffered(dst, io.NewSectionReader(src.gen, off, chunk))
		} else if m, err = copyExtent(dst, sc, src.h, pieceOff, chunk); err == nil &&
			src.segs && !n.cfg.KeepSegmentPages && pieceOff == 0 && chunk == extent &&
			storage.FadviseDontNeed(src.h) {
			// Complete sequential pass: this serve touched every page of
			// the segment once and will not come back for them.
			n.Metrics.StoreFadviseDontNeed.Inc()
		}
		written += m
		if err != nil {
			return written, err
		}
		off += chunk
		length -= chunk
	}
	return written, nil
}

// copyExtent writes length bytes of the volume entry behind h, from its
// offset off, to dst through the scratch's LimitedReader (see
// copyRange).
func copyExtent(dst io.Writer, sc *fetchScratch, h *storage.Handle, off, length int64) (int64, error) {
	f, err := h.FileAt(off)
	if err != nil {
		return 0, err
	}
	sc.lr = io.LimitedReader{R: f, N: length}
	return io.Copy(dst, &sc.lr)
}

// Constant header values shared across requests. The keys they are
// assigned under are already in canonical form, so the serving path
// pays neither textproto canonicalization nor a value-slice allocation
// per request for them.
var (
	octetStreamHeader  = []string{"application/octet-stream"}
	acceptRangesHeader = []string{"bytes"}
)

// writeRanges writes every local fetch and segment response: headers,
// then the windows rngs of the dataset read from src — one window as a
// 200 (or a 206 with Content-Range when isRange), several as a
// multipart/byteranges body streamed part by part, never buffering a
// part. Warm single-window serves allocate nothing: header values,
// length strings, and the LimitedReader live in the pooled fetchScratch
// (see hotpath.go), enforced by TestServeAllocBudgets.
func (n *Node) writeRanges(w http.ResponseWriter, r *http.Request, src *fetchSource,
	rngs []byteRange, isRange bool, total int64) {
	// The fetch endpoint addresses the dataset itself, whole or ranged;
	// a segment response is one window of it and honors no Range.
	object := isRange || rngs[0].n == total
	h := w.Header()
	if object {
		h["Accept-Ranges"] = acceptRangesHeader
	}
	h["X-Scdn-Source"] = n.srcHdr
	if src.h != nil {
		n.Metrics.StoreDiskHits.Inc()
		if src.segs && object {
			n.Metrics.SegmentedServes.Inc()
		}
	}
	if isRange {
		n.Metrics.RangeRequests.Inc()
	}
	var served int64
	if len(rngs) > 1 {
		n.Metrics.RangeMultipart.Inc()
		served = n.writeMultipart(w, r, src, rngs, total)
	} else {
		rng := rngs[0]
		sc := fetchScratchPool.Get().(*fetchScratch)
		h["Content-Type"] = octetStreamHeader
		h["Content-Length"] = sc.contentLength(rng.n)
		status := http.StatusOK
		if isRange {
			status = http.StatusPartialContent
			h["Content-Range"] = sc.contentRange(rng, total)
		}
		w.WriteHeader(status)
		// Only a body write puts the header values the scratch holds on
		// the wire; a HEAD or empty body leaves the scratch to the GC.
		if r.Method != http.MethodHead && rng.n > 0 {
			served, _ = n.copyRange(w, sc, src, rng.off, rng.n)
			fetchScratchPool.Put(sc)
		}
	}
	n.Metrics.LocalHits.Inc()
	n.Metrics.BytesServed.Add(uint64(served))
}

// materialize writes the dataset's deterministic bytes [off, off+size)
// into the replica volume as entry key — the whole replica or one
// segment — single-flight across concurrent fetches, counted per
// entry, and reports whether a committed entry now exists.
func (n *Node) materialize(key, id storage.DatasetID, off, size int64) bool {
	did, err := n.vol.Materialize(key, size, func(w io.Writer) error {
		_, err := copyBuffered(w, io.NewSectionReader(payloadBlock(id), off, size))
		return err
	})
	if err != nil {
		n.Metrics.StoreSpillFailures.Inc()
		return false
	}
	if did {
		n.Metrics.StoreMaterializations.Inc()
		n.Metrics.StoreMaterializedBytes.Add(uint64(size))
	}
	return true
}

// peerPull is one request to a dataset's holders, the same for every
// attempt: the relay request (path, forwarded Range, Authorization), the
// status a good holder answers with, and the body length that answer
// must carry (-1: the holder's own, for relayed multipart framing).
type peerPull struct {
	relayRequest
	status int
	length int64
}

// The peer fallback makes fetchAttempts attempts in all, across the
// candidates; its backoff starts at retryBase and doubles per retry up
// to retryMax.
const (
	fetchAttempts = 4
	retryBase     = 10 * time.Millisecond
	retryMax      = 250 * time.Millisecond
)

// errNoLiveHolder reports a pull left with no live holder to try: churn
// (the holders died, repair is working the gap), not a broken peer.
var errNoLiveHolder = errors.New("server: no live replica holder")

// pullFromPeers is the node's one way to move a dataset's bytes from
// another edge: a client fetch's fallback and a repair copy alike. It
// resolves the dataset's replica holders, orders them by estimated RTT
// from this edge's site, and tries them with bounded retry and
// exponential backoff, each attempt one relay exchange (tryPeer). take
// reads a good answer's body and reports whether the pull is done: the
// bytes were delivered, or a client-facing response started and cannot
// be retried. Returns errNoLiveHolder when no live holder is left.
func (n *Node) pullFromPeers(ctx context.Context, id storage.DatasetID, pull *peerPull,
	take func(storage.NodeID, *relayConn, *http.Response) (bool, error)) (done bool, err error) {
	reps, _ := n.catalog.Replicas(id) // the error is always nil
	cands := n.orderCandidates(reps)
	if len(cands) == 0 {
		return false, errNoLiveHolder
	}
	backoff := retryBase
	for attempt := 0; attempt < fetchAttempts; attempt++ {
		if attempt > 0 {
			n.Metrics.PeerRetries.Inc()
			select {
			case <-ctx.Done():
				return false, ctx.Err()
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, retryMax)
		}
		if done, err = n.tryPeer(ctx, cands[attempt%len(cands)].Node, pull, take); done {
			return true, err
		}
	}
	// If everything we tried has since been declared dead or suspect, the
	// failure is churn (the holders died under us), not a broken peer.
	if len(n.orderCandidates(cands)) == 0 {
		return false, errNoLiveHolder
	}
	return false, fmt.Errorf("server: all %d attempts to pull %s failed: %w", fetchAttempts, pull.path, err)
}

// retryAfterHeader is the Retry-After value on churn 503s: one second is
// a couple of sweep intervals, enough for the repair loop to restore a
// live copy in the common case.
const retryAfterHeader = "1"

// serveUnavailable answers a fetch for a catalogued dataset that churn
// has left with zero live holders: 503 with Retry-After, counted under
// the churn metric rather than FetchFailures so load generators can
// reconcile churn-caused unavailability separately from real errors.
func (n *Node) serveUnavailable(w http.ResponseWriter, id storage.DatasetID) {
	n.Metrics.ChurnUnavailable.Inc()
	w.Header().Set("Retry-After", retryAfterHeader)
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("server: no live replica for %q (members down, repair in progress)", id))
}

// orderCandidates filters replica holders down to online peers with an
// endpoint (excluding this node) and sorts them by estimated RTT from
// this edge's site, ties by node ID for determinism.
func (n *Node) orderCandidates(reps []Replica) []Replica {
	mySite := n.registry.snapshot()[n.cfg.Node].Site
	cands := make([]Replica, 0, len(reps))
	for _, rep := range reps {
		// Suspects — members whose last health probe failed but that the
		// sweeper has not yet declared dead — are skipped the same as
		// offline members: don't burn retry budget on a likely corpse.
		if rep.Node == n.cfg.Node || !n.isLive(rep.Node) {
			continue
		}
		if _, ok := n.registry.BaseURL(rep.Node); !ok {
			continue
		}
		cands = append(cands, rep)
	}
	sort.Slice(cands, func(i, j int) bool {
		ri, rj := siteRTT(mySite, cands[i].Site), siteRTT(mySite, cands[j].Site)
		if ri != rj {
			return ri < rj
		}
		return cands[i].Node < cands[j].Node
	})
	return cands
}

// relayHeaders are the peer response headers a proxied answer passes
// through verbatim: the peer serves the identical window through the
// same range writer, and a multipart boundary lives in its Content-Type.
var relayHeaders = []string{"Accept-Ranges", "Content-Type", "Content-Length", "Content-Range"}

// tryPeer makes one attempt of a pull against one holder over the
// node's relay (relay.go). An answer with the wanted status and length
// goes to take; any other is drained. Every fetch answer this server
// writes carries a Content-Length, so one without is a failed attempt.
// The connection returns to the pool only when the exchange ended
// cleanly. A HEAD is forwarded as a HEAD.
func (n *Node) tryPeer(ctx context.Context, holder storage.NodeID, pull *peerPull,
	take func(storage.NodeID, *relayConn, *http.Response) (bool, error)) (done bool, err error) {
	base, ok := n.registry.BaseURL(holder)
	if !ok {
		return false, ErrNoEndpoint
	}
	rc, resp, err := n.relay.roundTrip(ctx, strings.TrimPrefix(base, "http://"), &pull.relayRequest)
	if err != nil {
		return false, err
	}
	if resp.StatusCode != pull.status || resp.ContentLength < 0 ||
		pull.length >= 0 && resp.ContentLength != pull.length {
		rc.release(drainBody(resp.Body) && !resp.Close)
		return false, fmt.Errorf("server: peer %d answered %s with %s (%d bytes)",
			holder, pull.path, resp.Status, resp.ContentLength)
	}
	done, err = take(holder, rc, resp)
	rc.release(err == nil && !resp.Close)
	return done, err
}

// drainBodyLimit bounds how much of a failed peer response gets read
// before close. Error envelopes are small JSON bodies, but a peer that
// commits to a payload and then fails mid-flight can leave much more in
// the pipe; reading up to 1 MiB keeps the connection reusable in every
// realistic failure without letting a pathological peer pin this edge.
const drainBodyLimit = 1 << 20

// drainBody reads a response body to EOF (bounded) so the underlying
// connection can go back to its idle pool instead of being torn down —
// without this, every failed peer hop costs the next attempt a TCP
// handshake. Reports whether the body was read to its end.
func drainBody(body io.Reader) bool {
	n, err := io.Copy(io.Discard, io.LimitReader(body, drainBodyLimit))
	return err == nil && n < drainBodyLimit
}

// pullSink returns the sink adopting a pulled window [off, end) of the
// dataset into the local volume, or nil when nothing may be adopted.
// Flat datasets adopt as one whole-file piece. Large objects adopt per
// segment: each piece is verified and committed the moment it
// completes, so an interrupted pull still leaves servable segments
// behind, and a dataset bigger than the whole volume still caches its
// hot prefix. Every piece is verified against the manifest, so without
// one (whose block size divides the segment size) nothing is adopted.
func (n *Node) pullSink(id storage.DatasetID, total, off, end int64) *spillWriter {
	man, ok := n.manifests.Get(id)
	if !ok {
		return nil
	}
	s := &spillWriter{n: n, id: id, man: man, total: total, piece: total, off: off, end: end}
	if s.segs = n.segmented(total); s.segs {
		if n.cfg.SegmentSize%man.BlockSize != 0 {
			return nil
		}
		s.piece = n.cfg.SegmentSize
	} else if total > n.vol.Quota() {
		return nil
	}
	return s
}

// errSpillCut marks a piece the pulled stream ended inside of.
var errSpillCut = errors.New("server: pulled stream ended mid-piece")

// spillWriter adopts a pulled stream into the replica volume piece by
// piece — a whole flat dataset (NewSpill) or one segment
// (NewSegmentSpill) — each verified against the manifest's block
// digests for exactly its window and committed the moment its last
// byte arrives. It is the one way peer bytes enter a volume:
// pull-through and repair copies alike. Peer bytes are never adopted on
// faith: a mismatch discards the piece (and, for opaque datasets, the
// would-be replica record); a proxied client's own stream is already on
// the wire by then and end-to-end client verification catches that
// side. Write never fails: the client response must not fail because
// the secondary sink did, so the first error poisons the sink, later
// bytes are dropped, and finish reports the outcome.
type spillWriter struct {
	n        *Node
	id       storage.DatasetID
	man      *ingest.Manifest
	total    int64
	segs     bool  // pieces are segments, not the whole dataset
	piece    int64 // piece size: the segment size, else the dataset size
	off, end int64 // absolute offset of the next byte; end of the pulled window
	cur      *storage.Spill
	verifier *ingest.RangeVerifier
	flat     bool  // a whole-file piece committed
	err      error // first adoption error
}

func (s *spillWriter) Write(p []byte) (int, error) {
	if s.err != nil {
		return len(p), nil
	}
	if err := s.write(p); err != nil {
		if s.cur != nil {
			s.cur.Abort()
			s.cur, s.verifier = nil, nil
		}
		s.err = err
	}
	return len(p), nil
}

func (s *spillWriter) write(p []byte) error {
	for len(p) > 0 {
		if s.off >= s.end {
			return fmt.Errorf("server: pull of %q runs past byte %d", s.id, s.end)
		}
		idx := s.off / s.piece
		start := idx * s.piece
		extent := min(s.piece, s.total-start)
		if s.cur == nil {
			var err error
			if s.segs {
				s.cur, err = s.n.vol.NewSegmentSpill(s.id, idx)
			} else {
				s.cur, err = s.n.vol.NewSpill(s.id)
			}
			if err != nil {
				return err
			}
			if s.verifier, err = s.man.NewRangeVerifier(start, extent); err != nil {
				return err
			}
		}
		chunk := min(start+extent-s.off, int64(len(p)))
		if _, err := s.verifier.Write(p[:chunk]); err != nil {
			return err
		}
		if _, err := s.cur.Write(p[:chunk]); err != nil {
			return err
		}
		s.off += chunk
		p = p[chunk:]
		if s.off < start+extent {
			continue
		}
		if err := s.verifier.Close(); err != nil {
			return err
		}
		cur := s.cur
		s.cur, s.verifier = nil, nil
		if err := cur.Commit(extent); err != nil {
			return err
		}
		if s.segs {
			s.n.Metrics.SegmentPulls.Inc()
		} else {
			s.flat = true
			s.n.Metrics.StoreSpills.Inc()
		}
	}
	return nil
}

// finish closes out the sink after the pull: a piece the stream ended
// inside of is aborted, every piece that committed stays adopted, and
// the first adoption error is counted — corrupt peer bytes as a digest
// reject, anything else as a spill failure; the client's stream already
// went out either way. Reports whether a whole-file piece committed and
// whether peer bytes were rejected. Nil-safe.
func (s *spillWriter) finish() (flat, rejected bool) {
	if s == nil {
		return false, false
	}
	if s.cur != nil {
		s.cur.Abort()
		s.cur = nil
		if s.err == nil {
			s.err = errSpillCut
		}
	}
	rejected = errors.Is(s.err, ingest.ErrDigestMismatch)
	switch {
	case rejected:
		s.n.Metrics.IngestDigestRejects.Inc()
	case s.err != nil:
		s.n.Metrics.StoreSpillFailures.Inc()
	}
	return s.flat, rejected
}
