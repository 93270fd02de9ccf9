package server

import (
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

	"scdn/internal/allocation"
	"scdn/internal/ingest"
	"scdn/internal/metrics"
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
	mux.HandleFunc("POST /v1/replicate", n.handleReplicate)
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

// handleReplicate adopts a replica on request (the repair sweeper's
// peer-to-peer re-replication). Authorization is the same group check
// any fetch pays; the bytes are re-derived locally, never shipped.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req ReplicateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad replicate body: %w", err))
		return
	}
	id := storage.DatasetID(req.Dataset)
	if _, err := n.auth.Authorize(bearerToken(r), id); err != nil {
		n.Metrics.AuthDenied.Inc()
		writeError(w, http.StatusForbidden, err)
		return
	}
	n.Metrics.ReplicateRequests.Inc()
	if _, err := n.catalog.DatasetBytes(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if n.hasLocal(id) {
		writeJSON(w, http.StatusOK, ReplicateResponse{Dataset: req.Dataset, Already: true})
		return
	}
	if !n.replicateLocal(r.Context(), id) {
		// Not adopted here and now (partition full, or a racing repairer
		// beat us to the announcement): either way this edge is not a new
		// holder.
		writeJSON(w, http.StatusOK, ReplicateResponse{Dataset: req.Dataset, Already: n.hasLocal(id)})
		return
	}
	writeJSON(w, http.StatusOK, ReplicateResponse{Dataset: req.Dataset, Adopted: true})
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
	rep, ok, err := n.catalog.Resolve(id, allocation.NodeID(user))
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
	bytes, err := n.catalog.DatasetBytes(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	origin, err := n.catalog.Origin(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	peerURL, _ := n.registry.BaseURL(rep.Node)
	// List every online holder with an endpoint so striped clients can
	// spread range fetches across replica holders (GridFTP-style).
	var holders []ReplicaInfo
	if all, err := n.catalog.Replicas(id); err == nil {
		for _, hr := range all {
			if !n.registry.Online(hr.Node) || n.suspects.isSuspect(hr.Node) {
				continue
			}
			hu, _ := n.registry.BaseURL(hr.Node)
			holders = append(holders, ReplicaInfo{
				Node: hr.Node, Site: hr.Site, URL: hu, Origin: hr.Node == origin,
			})
		}
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
	// Segmented datasets publish their segment index (an HLS-style
	// manifest): size, count, and the rolled-up per-segment digests, so
	// clients can plan stripes on segment boundaries and spot-check
	// pieces without the full block manifest.
	if n.segmented(bytes) {
		resp.SegmentSize = n.cfg.SegmentSize
		resp.Segments = storage.SegmentCount(bytes, n.cfg.SegmentSize)
		resp.SegmentDigests = n.segmentDigestIndex(id, bytes)
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

func (n *Node) handleFetch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := storage.DatasetID(r.PathValue("dataset"))
	fromPeer := r.Header.Get(peerHeader) != ""
	if fromPeer {
		n.Metrics.PeerFetchRequests.Inc()
	} else {
		n.Metrics.FetchRequests.Inc()
		defer func() { n.Metrics.FetchLatency.Observe(time.Since(start).Seconds()) }()
	}
	fail := func(status int, err error) {
		if !fromPeer {
			n.Metrics.FetchFailures.Inc()
		}
		writeError(w, status, err)
	}
	if _, err := n.auth.Authorize(bearerToken(r), id); err != nil {
		n.Metrics.AuthDenied.Inc()
		fail(http.StatusForbidden, err)
		return
	}
	bytes, berr := n.catalog.DatasetBytes(id)
	local := n.hasLocal(id)
	if berr != nil {
		if local {
			fail(http.StatusInternalServerError, berr)
		} else if fromPeer {
			// Peer hops never fan out again: a fallback chain is one hop.
			fail(http.StatusNotFound, fmt.Errorf("server: node %d does not hold %q", n.cfg.Node, id))
		} else {
			fail(http.StatusNotFound, berr)
		}
		return
	}
	// Parse the range set before deciding how to serve: malformed or
	// unsatisfiable ranges (any part of a multipart spec) are rejected
	// here with 416 — never silently answered with the full body — and
	// never forwarded to a peer.
	rngs, isRange, rerr := parseRanges(r.Header.Get("Range"), bytes)
	if rerr != nil {
		n.Metrics.RangeNotSatisfiable.Inc()
		w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", bytes))
		fail(http.StatusRequestedRangeNotSatisfiable, rerr)
		return
	}
	if local {
		if n.serveLocal(w, r, id, rngs, isRange, bytes) {
			return
		}
		// The local claim was a lie: an opaque dataset whose volume file
		// is gone cannot be regenerated. Withdraw the stale records so
		// resolution stops routing here, then fall through to the peer
		// path — a surviving holder still has the real bytes.
		n.dropLocal(id)
	}
	if fromPeer {
		fail(http.StatusNotFound, fmt.Errorf("server: node %d does not hold %q", n.cfg.Node, id))
		return
	}
	// Range requests are forwarded to the peer as ranges, so a proxied
	// stripe moves only its own bytes; a multipart set is relayed as the
	// peer framed it, so its length is the peer's.
	pull := peerPull{path: "/v1/fetch/" + url.PathEscape(string(id)),
		status: http.StatusOK, length: bytes, failures: &n.Metrics.FetchFailures}
	if isRange {
		pull.rangeHdr, pull.status, pull.length = rangesHeader(rngs), http.StatusPartialContent, rngs[0].n
		if len(rngs) > 1 {
			pull.length = -1
			for _, rng := range rngs {
				pull.payload += rng.n
			}
		}
	}
	// Pull-through only on full-body GETs: a stripe proves nothing about
	// the rest of the dataset, so partial transfers never adopt bytes or
	// mint a replica record, and a HEAD moves no bytes at all.
	adopt := n.cfg.PullThrough && !isRange && r.Method != http.MethodHead
	if adopt {
		pull.sink = n.pullSink(id, bytes, 0, bytes)
	}
	ok := n.pullFromPeers(w, r, id, &pull, fail)
	flat := pull.sink.finish()
	// The replica record announces the copy. A seeded dataset whose spill
	// failed is still a holder — its bytes are materialized from the
	// generator on the next local hit — but an opaque dataset has no
	// generator, so its record exists only when digest-verified bytes
	// committed as one whole file.
	if ok && adopt && (flat || !n.opaque(id)) {
		n.cachePulled(id, bytes)
	}
}

// opaque reports whether the dataset is an upload whose bytes exist
// only as real files: they are never synthesized.
func (n *Node) opaque(id storage.DatasetID) bool {
	man, ok := n.manifests.Get(id)
	return ok && man.Opaque
}

// fetchSource is where a local serve reads the dataset's bytes from,
// picked before any header is written. Exactly one form is set: a whole
// replica's extent (seek + sendfile), the segment extents of the
// segmented layout (walked by copySegmentRange), or — when the volume
// cannot hold the piece — the deterministic generator. A struct
// rather than an interface or closure so the warm serve path allocates
// nothing.
type fetchSource struct {
	id    storage.DatasetID
	total int64
	file  *storage.Handle
	seg   bool
	gen   payload
}

// serveLocal streams the dataset (or the requested ranges of it) from
// this edge, which the caller has established holds it. Returns false,
// before any header is written, when no local source can produce the
// bytes: an opaque dataset whose volume file is gone — the caller must
// treat the local copy as lost.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, id storage.DatasetID,
	rngs []byteRange, isRange bool, total int64) bool {
	last := rngs[len(rngs)-1]
	src, ok := n.localSource(id, total, rngs[0].off, last.off+last.n, true)
	if !ok {
		return false
	}
	n.writeRanges(w, r, &src, rngs, isRange, total)
	n.releaseSource(&src)
	return true
}

// localSource picks the source for the dataset window [off, end). held
// says this edge is a catalogued holder: only a holder derives bytes
// (materializes a replica or segment, or runs the generator) instead of
// serving what its volume already has, and never for an opaque dataset.
//
// A whole-file replica wins when one exists — materialized on first
// access for flat datasets. Large datasets take the segmented layout:
// per-segment files materialized on demand, so a quota-constrained edge
// still serves datasets bigger than its volume. The generator is the
// fallback when the volume cannot hold the piece — it derives the
// identical byte stream — so a fetch never fails just because a disk is
// full.
func (n *Node) localSource(id storage.DatasetID, total, off, end int64, held bool) (fetchSource, bool) {
	derive := held && !n.opaque(id)
	src := fetchSource{id: id, total: total}
	segmented := n.segmented(total)
	f, size, ok := n.vol.Open(id)
	if !ok && derive && !segmented && n.materialize(id, total) {
		f, size, ok = n.vol.Open(id)
	}
	if ok {
		if size == total {
			src.file = f
			return src, true
		}
		// Stale replica (catalog size changed): drop it and
		// re-materialize on the next access rather than serving
		// wrong bytes now.
		n.vol.Release(id, f)
		n.vol.Remove(id)
	}
	if segmented {
		// The walk materializes every segment past the first, so a
		// non-holder serves only a window inside one resident segment.
		seg := off / n.cfg.SegmentSize
		oneSeg := end <= (seg+1)*n.cfg.SegmentSize
		if (derive || oneSeg && n.vol.HasSegment(id, seg)) && n.ensureSegment(id, seg, total) {
			src.seg = true
			return src, true
		}
	}
	if !derive {
		return src, false
	}
	src.gen = payloadBlock(id)
	return src, true
}

// releaseSource returns a whole-replica source's handle to its pack's
// pool (a nil handle is a no-op).
func (n *Node) releaseSource(src *fetchSource) { n.vol.Release(src.id, src.file) }

// copyRange writes the dataset window [off, off+length) from src to
// dst. A scratch, when given, lends its LimitedReader, which net/http
// unwraps so a file window rides sendfile, and a multipart partWriter
// reads straight into its buffer — either way without allocating.
func (n *Node) copyRange(dst io.Writer, sc *fetchScratch, src *fetchSource, off, length int64) (int64, error) {
	switch {
	case src.file != nil:
		f, err := src.file.FileAt(off)
		if err != nil {
			return 0, err
		}
		if sc == nil {
			return io.CopyN(dst, f, length)
		}
		sc.lr = io.LimitedReader{R: f, N: length}
		return io.Copy(dst, &sc.lr)
	case src.seg:
		return n.copySegmentRange(dst, sc, src.id, src.total, off, length)
	default:
		return copyBuffered(dst, io.NewSectionReader(src.gen, off, length))
	}
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
	if src.gen == nil {
		n.Metrics.StoreDiskHits.Inc()
		if src.seg && object {
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
		h["Content-Type"] = octetStreamHeader
		status := http.StatusOK
		if isRange {
			status = http.StatusPartialContent
		}
		if useScratch(r, rng.n) {
			sc := fetchScratchPool.Get().(*fetchScratch)
			defer fetchScratchPool.Put(sc)
			h["Content-Length"] = sc.contentLength(rng.n)
			if isRange {
				h["Content-Range"] = sc.contentRange(rng, total)
			}
			w.WriteHeader(status)
			served, _ = n.copyRange(w, sc, src, rng.off, rng.n)
		} else {
			// HEAD or empty body: net/http may serialize the header map
			// after the handler returns, so the values must not alias
			// pooled memory.
			h.Set("Content-Length", strconv.FormatInt(rng.n, 10))
			if isRange {
				h.Set("Content-Range", rng.contentRange(total))
			}
			w.WriteHeader(status)
			if r.Method != http.MethodHead {
				served, _ = n.copyRange(w, nil, src, rng.off, rng.n)
			}
		}
	}
	n.Metrics.LocalHits.Inc()
	n.Metrics.BytesServed.Add(uint64(served))
}

// materialize writes the dataset's deterministic bytes into the replica
// volume (single-flight across concurrent fetches) and reports whether a
// committed replica now exists.
func (n *Node) materialize(id storage.DatasetID, total int64) bool {
	did, err := n.vol.Materialize(id, total, func(w io.Writer) error {
		_, err := copyBuffered(w, io.NewSectionReader(payloadBlock(id), 0, total))
		return err
	})
	if err != nil {
		n.Metrics.StoreSpillFailures.Inc()
		return false
	}
	if did {
		n.Metrics.StoreMaterializations.Inc()
		n.Metrics.StoreMaterializedBytes.Add(uint64(total))
	}
	return true
}

// peerPull is one proxied request, the same for every attempt: the path
// on the peer, the Range header to forward ("" for a whole body), the
// status a good peer answers with, the body length that answer must
// carry (-1: the peer's own, for relayed multipart framing) and, for
// multipart, the payload bytes inside that framing, the sink adopting
// the bytes (nil: none), and the failure counter of the client-facing
// endpoint.
type peerPull struct {
	path     string
	rangeHdr string
	status   int
	length   int64
	payload  int64
	sink     *spillWriter
	failures *metrics.Counter
}

// The peer fallback makes fetchAttempts attempts in all, across the
// candidates; its backoff starts at retryBase and doubles per retry up
// to retryMax.
const (
	fetchAttempts = 4
	retryBase     = 10 * time.Millisecond
	retryMax      = 250 * time.Millisecond
)

// pullFromPeers realizes the edge fallback: resolve the dataset's
// replica holders, order them by estimated RTT from this edge's site,
// and try them with bounded retry and exponential backoff, streaming
// the first good response to the client. Reports whether a response
// was streamed in full.
func (n *Node) pullFromPeers(w http.ResponseWriter, r *http.Request, id storage.DatasetID,
	pull *peerPull, fail func(int, error)) bool {
	reps, err := n.catalog.Replicas(id)
	if err != nil {
		fail(http.StatusBadGateway, err)
		return false
	}
	origin, err := n.catalog.Origin(id)
	if err != nil {
		fail(http.StatusInternalServerError, err)
		return false
	}
	cands := n.orderCandidates(reps)
	if len(cands) == 0 {
		// Zero live holders is churn, not a client error: the dataset is
		// catalogued, its members are just (momentarily) dead and the
		// repair sweeper is already working the gap. Tell the client when
		// to come back instead of counting a fetch failure.
		n.serveUnavailable(w, id)
		return false
	}
	backoff := retryBase
	var lastErr error
	for attempt := 0; attempt < fetchAttempts; attempt++ {
		if attempt > 0 {
			n.Metrics.PeerRetries.Inc()
			select {
			case <-r.Context().Done():
				fail(http.StatusBadGateway, r.Context().Err())
				return false
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > retryMax {
				backoff = retryMax
			}
		}
		committed, err := n.tryPeer(w, r, cands[attempt%len(cands)], origin, pull)
		if committed {
			return err == nil
		}
		lastErr = err
	}
	// If everything we tried has since been declared dead or suspect, the
	// failure is churn (the holders died under us), not a broken peer.
	if len(n.orderCandidates(cands)) == 0 {
		n.serveUnavailable(w, id)
		return false
	}
	fail(http.StatusBadGateway,
		fmt.Errorf("server: all %d attempts to pull %s failed: %w", fetchAttempts, pull.path, lastErr))
	return false
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
func (n *Node) orderCandidates(reps []allocation.Replica) []allocation.Replica {
	mySite, _ := n.registry.SiteOf(n.cfg.Node)
	cands := make([]allocation.Replica, 0, len(reps))
	for _, rep := range reps {
		// Suspects — members whose last health probe failed but that the
		// sweeper has not yet declared dead — are skipped the same as
		// offline members: don't burn retry budget on a likely corpse.
		if rep.Node == n.cfg.Node || !n.registry.Online(rep.Node) || n.suspects.isSuspect(rep.Node) {
			continue
		}
		if _, ok := n.registry.BaseURL(rep.Node); !ok {
			continue
		}
		cands = append(cands, rep)
	}
	sort.Slice(cands, func(i, j int) bool {
		ri, _ := n.registry.RTT(mySite, cands[i].Site)
		rj, _ := n.registry.RTT(mySite, cands[j].Site)
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

// tryPeer makes one attempt of a pull against one candidate holder over
// the node's relay (relay.go) and, on a good answer, streams it to the
// client and through pull.sink. A HEAD is forwarded as a HEAD: the
// holder's headers are relayed and no byte is counted or adopted.
// committed reports whether a response was written (successfully or
// not) — once headers are on the wire there is no retrying.
func (n *Node) tryPeer(w http.ResponseWriter, r *http.Request, cand allocation.Replica,
	origin allocation.NodeID, pull *peerPull) (committed bool, _ error) {
	base, ok := n.registry.BaseURL(cand.Node)
	if !ok {
		return false, ErrNoEndpoint
	}
	q := relayRequest{method: r.Method, path: pull.path, auth: r.Header.Get("Authorization"),
		peer: n.srcID, rangeHdr: pull.rangeHdr}
	rc, resp, err := n.relay.roundTrip(r.Context(), strings.TrimPrefix(base, "http://"), &q)
	if err != nil {
		return false, err
	}
	keep := false
	defer func() { rc.release(keep && !resp.Close) }()
	if resp.StatusCode != pull.status || pull.length >= 0 && resp.ContentLength != pull.length {
		keep = drainBody(resp.Body)
		return false, fmt.Errorf("server: peer %d answered %s with %s (%d bytes)",
			cand.Node, pull.path, resp.Status, resp.ContentLength)
	}
	h := w.Header()
	for _, k := range relayHeaders {
		if v := resp.Header[k]; v != nil {
			h[k] = v
		}
	}
	h["X-Scdn-Source"] = []string{strconv.FormatInt(int64(cand.Node), 10)}
	w.WriteHeader(pull.status)
	head := r.Method == http.MethodHead
	var written int64
	var copyErr error
	switch {
	case head:
	case pull.sink == nil && resp.ContentLength >= 0:
		written, copyErr = rc.relayBody(w, resp.ContentLength)
	default:
		dst := io.Writer(w)
		if pull.sink != nil {
			dst = io.MultiWriter(w, pull.sink)
		}
		written, copyErr = copyBuffered(dst, resp.Body)
	}
	// BytesServed counts payload, as the holder does: a relayed
	// multipart answer's framing is left out.
	served := written
	if pull.length < 0 && resp.ContentLength >= 0 {
		served = max(0, written-(resp.ContentLength-pull.payload))
	}
	n.Metrics.BytesServed.Add(uint64(served))
	if copyErr == nil && !head && resp.ContentLength >= 0 && written != resp.ContentLength {
		copyErr = io.ErrUnexpectedEOF
	}
	if copyErr != nil {
		pull.failures.Inc()
		return true, copyErr
	}
	keep = true
	if cand.Node == origin {
		n.Metrics.OriginFetches.Inc()
	} else {
		n.Metrics.PeerHits.Inc()
	}
	return true, nil
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
	if !n.cfg.PullThrough {
		return nil
	}
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
// byte arrives. Peer bytes are never adopted on faith: a mismatch
// discards the piece (and, for opaque datasets, the would-be replica
// record); the client's own stream is already on the wire by then and
// end-to-end client verification catches that side. Write never fails:
// the client response must not fail because the secondary sink did, so
// the first error poisons the sink and later bytes are dropped.
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
// went out either way. Reports whether a whole-file piece committed.
// Nil-safe.
func (s *spillWriter) finish() bool {
	if s == nil {
		return false
	}
	if s.cur != nil {
		s.cur.Abort()
		s.cur = nil
		if s.err == nil {
			s.err = errSpillCut
		}
	}
	switch {
	case s.err == nil:
	case errors.Is(s.err, ingest.ErrDigestMismatch):
		s.n.Metrics.IngestDigestRejects.Inc()
	default:
		s.n.Metrics.StoreSpillFailures.Inc()
	}
	return s.flat
}
