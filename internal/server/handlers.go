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
	n.proxyFetch(w, r, id, rngs, isRange, bytes, fail)
}

// serveLocal streams the dataset (or the requested byte range of it)
// from this edge: from the disk-backed replica volume via sendfile when
// the node has one, from the in-memory deterministic generator
// otherwise. Generated and disk copies of a seeded dataset are the
// identical byte stream, so clients verify either the same way. Opaque
// (uploaded) datasets exist only as real files: they are never
// synthesized, so a missing volume file returns false — the caller must
// treat the local copy as lost.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, id storage.DatasetID,
	rngs []byteRange, isRange bool, total int64) bool {
	man, hasMan := n.manifests.Get(id)
	opaque := hasMan && man.Opaque
	// Large regenerable datasets take the segmented layout: per-segment
	// files materialized on demand, so the volume never commits to one
	// monolithic large file and a quota-constrained edge still serves
	// datasets bigger than itself. A whole-file replica that already
	// exists (e.g. committed before the threshold changed) is still
	// served as one file below; opaque datasets always are — their
	// missing segments could never be re-derived.
	if n.vol != nil && !opaque && n.segmented(total) && !n.vol.Has(id) {
		if n.serveSegments(w, r, id, rngs, isRange, total) {
			return true
		}
		n.serveGenerated(w, r, id, rngs, isRange, total)
		return true
	}
	if n.vol != nil && n.serveDisk(w, r, id, rngs, isRange, total, opaque) {
		return true
	}
	if opaque {
		return false
	}
	n.serveGenerated(w, r, id, rngs, isRange, total)
	return true
}

// Constant header values shared across requests. The keys they are
// assigned under are already in canonical form, so the disk serving path
// pays neither textproto canonicalization nor a value-slice allocation
// per request for them.
var (
	octetStreamHeader  = []string{"application/octet-stream"}
	acceptRangesHeader = []string{"bytes"}
)

// serveDisk serves the dataset from the node's replica volume as an
// *os.File, so on a plain TCP connection the kernel moves the bytes
// (sendfile) and userspace copies nothing. Full GETs seek to the start
// (the FD pool hands back files wherever the last request left them)
// and stream via io.Copy, whose ReadFrom fast path is the sendfile
// call; single-part ranges — already parsed and validated by
// handleFetch — seek and stream the window through the scratch's pooled
// LimitedReader, which net/http unwraps so the range path rides
// sendfile too. Multipart range sets stream a multipart/byteranges body
// part by part straight off the file, never buffering a part. Warm
// requests allocate nothing: header values, length strings, and the
// LimitedReader all live in the pooled fetchScratch (see hotpath.go),
// enforced by TestServeAllocBudgets. The replica is materialized on
// first access (once, via the deterministic generator, so integrity
// verification is unchanged). Returns false to fall back to the
// generated path when the volume cannot produce the file; the fetch
// must not fail just because a disk is full. Opaque datasets skip
// materialization — their bytes are not derivable, a missing file is
// simply a miss.
func (n *Node) serveDisk(w http.ResponseWriter, r *http.Request, id storage.DatasetID,
	rngs []byteRange, isRange bool, total int64, opaque bool) bool {
	f, size, ok := n.vol.Open(id)
	if !ok {
		if opaque || !n.materialize(id, total) {
			return false
		}
		if f, size, ok = n.vol.Open(id); !ok {
			return false
		}
	}
	if size != total {
		// Stale replica (catalog size changed): drop it and re-materialize
		// on the next access rather than serving wrong bytes now.
		n.vol.Release(id, f)
		n.vol.Remove(id)
		return false
	}
	defer n.vol.Release(id, f)
	if len(rngs) > 1 {
		n.Metrics.StoreDiskHits.Inc()
		n.Metrics.RangeRequests.Inc()
		n.Metrics.RangeMultipart.Inc()
		h := w.Header()
		h["Accept-Ranges"] = acceptRangesHeader
		h["X-Scdn-Source"] = n.srcHdr
		served := writeMultipart(w, r, rngs, total, func(pw io.Writer, rng byteRange) error {
			if _, err := f.Seek(rng.off, io.SeekStart); err != nil {
				return err
			}
			_, err := io.CopyN(pw, f, rng.n)
			return err
		})
		n.Metrics.LocalHits.Inc()
		n.Metrics.BytesServed.Add(uint64(served))
		return true
	}
	rng := rngs[0]
	off := int64(0)
	if isRange {
		off = rng.off
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return false // nothing written yet; generated path takes over
	}
	n.Metrics.StoreDiskHits.Inc()
	h := w.Header()
	h["Content-Type"] = octetStreamHeader
	h["Accept-Ranges"] = acceptRangesHeader
	h["X-Scdn-Source"] = n.srcHdr
	if useScratch(r, rng.n) {
		sc := fetchScratchPool.Get().(*fetchScratch)
		defer fetchScratchPool.Put(sc)
		h["Content-Length"] = sc.contentLength(rng.n)
		if isRange {
			n.Metrics.RangeRequests.Inc()
			h["Content-Range"] = sc.contentRange(rng, total)
			w.WriteHeader(http.StatusPartialContent)
		} else {
			w.WriteHeader(http.StatusOK)
		}
		sc.lr = io.LimitedReader{R: f, N: rng.n}
		_, _ = io.Copy(w, &sc.lr)
	} else {
		// HEAD or empty body: net/http may serialize the header map after
		// the handler returns, so the values must not alias pooled memory.
		h.Set("Content-Length", strconv.FormatInt(rng.n, 10))
		status := http.StatusOK
		if isRange {
			n.Metrics.RangeRequests.Inc()
			h.Set("Content-Range", rng.contentRange(total))
			status = http.StatusPartialContent
		}
		w.WriteHeader(status)
		if r.Method != http.MethodHead {
			_, _ = io.CopyN(w, f, rng.n)
		}
	}
	n.Metrics.LocalHits.Inc()
	n.Metrics.BytesServed.Add(uint64(rng.n))
	return true
}

// materialize writes the dataset's deterministic bytes into the replica
// volume (single-flight across concurrent fetches) and reports whether a
// committed replica now exists.
func (n *Node) materialize(id storage.DatasetID, total int64) bool {
	did, err := n.vol.Materialize(id, total, func(w io.Writer) error {
		block, hit := n.blocks.Block(id)
		if hit {
			n.Metrics.PayloadCacheHits.Inc()
		} else {
			n.Metrics.PayloadCacheMisses.Inc()
		}
		_, err := writeBlockRangeBuffered(w, block, 0, total)
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

// serveGenerated streams the dataset from the node's payload-block cache
// so the SHA-256 chain is paid once per dataset, not per request; the
// wire bytes are assembled through a pooled buffer and the response
// headers through the pooled fetchScratch, so the warm steady state
// allocates nothing per fetch. Multipart range sets stream a
// multipart/byteranges body with each part generated directly into the
// response writer.
func (n *Node) serveGenerated(w http.ResponseWriter, r *http.Request, id storage.DatasetID,
	rngs []byteRange, isRange bool, total int64) {
	block, hit := n.blocks.Block(id)
	if hit {
		n.Metrics.PayloadCacheHits.Inc()
	} else {
		n.Metrics.PayloadCacheMisses.Inc()
	}
	h := w.Header()
	h["Accept-Ranges"] = acceptRangesHeader
	h["X-Scdn-Source"] = n.srcHdr
	if len(rngs) > 1 {
		n.Metrics.RangeRequests.Inc()
		n.Metrics.RangeMultipart.Inc()
		served := writeMultipart(w, r, rngs, total, func(pw io.Writer, rng byteRange) error {
			_, err := writeBlockRangeBuffered(pw, block, rng.off, rng.n)
			return err
		})
		n.Metrics.LocalHits.Inc()
		n.Metrics.BytesServed.Add(uint64(served))
		return
	}
	rng := rngs[0]
	h["Content-Type"] = octetStreamHeader
	var written int64
	if useScratch(r, rng.n) {
		sc := fetchScratchPool.Get().(*fetchScratch)
		defer fetchScratchPool.Put(sc)
		h["Content-Length"] = sc.contentLength(rng.n)
		if isRange {
			n.Metrics.RangeRequests.Inc()
			h["Content-Range"] = sc.contentRange(rng, total)
			w.WriteHeader(http.StatusPartialContent)
		} else {
			w.WriteHeader(http.StatusOK)
		}
		written, _ = writeBlockRangeBuffered(w, block, rng.off, rng.n)
	} else {
		h.Set("Content-Length", strconv.FormatInt(rng.n, 10))
		status := http.StatusOK
		if isRange {
			n.Metrics.RangeRequests.Inc()
			h.Set("Content-Range", rng.contentRange(total))
			status = http.StatusPartialContent
		}
		w.WriteHeader(status)
		if r.Method != http.MethodHead {
			written, _ = writeBlockRangeBuffered(w, block, rng.off, rng.n)
		}
	}
	n.Metrics.LocalHits.Inc()
	n.Metrics.BytesServed.Add(uint64(written))
}

// proxyFetch realizes the edge fallback: resolve the dataset's replica
// holders, order them by estimated RTT from this edge's site, and try
// them with bounded retry and exponential backoff, streaming the first
// successful response to the client. Range requests are forwarded to the
// peer as ranges, so a proxied stripe moves only its own bytes.
func (n *Node) proxyFetch(w http.ResponseWriter, r *http.Request, id storage.DatasetID,
	rngs []byteRange, isRange bool, total int64, fail func(int, error)) {
	reps, err := n.catalog.Replicas(id)
	if err != nil {
		fail(http.StatusBadGateway, err)
		return
	}
	origin, err := n.catalog.Origin(id)
	if err != nil {
		fail(http.StatusInternalServerError, err)
		return
	}
	cands := n.orderCandidates(reps)
	if len(cands) == 0 {
		// Zero live holders is churn, not a client error: the dataset is
		// catalogued, its members are just (momentarily) dead and the
		// repair sweeper is already working the gap. Tell the client when
		// to come back instead of counting a fetch failure.
		n.serveUnavailable(w, id)
		return
	}
	backoff := n.cfg.RetryBase
	var lastErr error
	for attempt := 0; attempt < n.cfg.FetchAttempts; attempt++ {
		if attempt > 0 {
			n.Metrics.PeerRetries.Inc()
			select {
			case <-r.Context().Done():
				fail(http.StatusBadGateway, r.Context().Err())
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > n.cfg.RetryMax {
				backoff = n.cfg.RetryMax
			}
		}
		cand := cands[attempt%len(cands)]
		committed, err := n.tryPeer(w, r, id, cand, rngs, isRange, total, origin)
		if committed {
			return
		}
		lastErr = err
	}
	// If everything we tried has since been declared dead or suspect, the
	// failure is churn (the holders died under us), not a broken peer.
	if len(n.orderCandidates(cands)) == 0 {
		n.serveUnavailable(w, id)
		return
	}
	fail(http.StatusBadGateway,
		fmt.Errorf("server: all %d fetch attempts for %q failed: %w", n.cfg.FetchAttempts, id, lastErr))
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

// tryPeer fetches the dataset from one peer edge and, on success, streams
// it through to the client. committed reports whether a response was
// written (successfully or not) — once headers are on the wire there is
// no retrying.
func (n *Node) tryPeer(w http.ResponseWriter, r *http.Request, id storage.DatasetID,
	cand allocation.Replica, rngs []byteRange, isRange bool, total int64,
	origin allocation.NodeID) (committed bool, _ error) {
	base, ok := n.registry.BaseURL(cand.Node)
	if !ok {
		return false, ErrNoEndpoint
	}
	rng, multi := rngs[0], len(rngs) > 1
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		base+"/v1/fetch/"+url.PathEscape(string(id)), nil)
	if err != nil {
		return false, err
	}
	req.Header.Set(peerHeader, fmt.Sprint(n.cfg.Node))
	req.Header.Set("Authorization", r.Header.Get("Authorization"))
	wantStatus := http.StatusOK
	if isRange {
		req.Header.Set("Range", rangesHeader(rngs))
		wantStatus = http.StatusPartialContent
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		drainBody(resp.Body)
		return false, fmt.Errorf("server: peer %d returned %s", cand.Node, resp.Status)
	}
	// Pull-through spills the stream to the replica volume as it proxies
	// (temp file + atomic rename on success), so the next local hit rides
	// sendfile without re-deriving a single byte. Spill problems never
	// fail the client's fetch: the spill is poisoned, aborted at the end,
	// and counted.
	var spill *storage.Spill
	var segSpill *segmentSpillWriter
	man, hasMan := n.manifests.Get(id)
	opaque := hasMan && man.Opaque
	pullThrough := n.cfg.PullThrough && !isRange
	if pullThrough && n.vol != nil {
		if n.segmented(total) {
			// Large objects adopt per segment: the stream is cut on
			// segment boundaries, each piece verified against its block
			// digests and committed the moment it completes — an
			// interrupted pull still leaves servable segments behind,
			// and a dataset bigger than the whole volume still caches
			// its hot prefix. Without a manifest whose block size
			// divides the segment size there is nothing to verify
			// against, so nothing is adopted.
			if hasMan && n.cfg.SegmentSize%man.BlockSize == 0 {
				segSpill = &segmentSpillWriter{n: n, id: id, man: man, total: total}
			}
		} else if total <= n.vol.Quota() {
			if sp, serr := n.vol.NewSpill(id); serr == nil {
				spill = sp
			} else {
				n.Metrics.StoreSpillFailures.Inc()
			}
		}
	}
	// Peer bytes are never trusted on faith: when the dataset has a
	// manifest, the spilled stream runs through a whole-stream verifier
	// (every block digest plus the exact length) and a mismatch discards
	// the copy (and, for opaque datasets, the would-be replica record).
	// The client's own stream is already on the wire by then —
	// end-to-end client verification catches that side.
	var verifier *ingest.RangeVerifier
	if spill != nil && hasMan {
		if vv, verr := man.NewVerifier(); verr == nil {
			verifier = vv
		} else {
			spill.Abort()
			spill = nil
			n.Metrics.StoreSpillFailures.Inc()
		}
	}
	// A multipart stripe set is relayed as the peer framed it: the
	// boundary lives in the peer's Content-Type, so that header (and the
	// framing-inclusive Content-Length) pass through verbatim.
	expected := rng.n
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("X-SCDN-Source", fmt.Sprint(cand.Node))
	status := http.StatusOK
	if multi {
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		if cl := resp.Header.Get("Content-Length"); cl != "" {
			w.Header().Set("Content-Length", cl)
		}
		expected = resp.ContentLength
		status = http.StatusPartialContent
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(rng.n))
		if isRange {
			w.Header().Set("Content-Range", rng.contentRange(total))
			status = http.StatusPartialContent
		}
	}
	w.WriteHeader(status)
	dst := io.Writer(w)
	var spillW *bestEffortWriter
	switch {
	case segSpill != nil:
		spillW = &bestEffortWriter{w: segSpill}
		dst = io.MultiWriter(w, spillW)
	case spill != nil:
		sink := io.Writer(spill)
		if verifier != nil {
			sink = io.MultiWriter(verifier, spill)
		}
		spillW = &bestEffortWriter{w: sink}
		dst = io.MultiWriter(w, spillW)
	}
	written, copyErr := copyBuffered(dst, resp.Body)
	n.Metrics.BytesServed.Add(uint64(written))
	if copyErr != nil || (expected >= 0 && written != expected) {
		if spill != nil {
			spill.Abort()
			n.Metrics.StoreSpillFailures.Inc()
		}
		if segSpill != nil {
			// The tail segment aborts; every segment that completed and
			// verified before the failure stays adopted.
			segSpill.finish()
			n.noteSegSpillErr(spillW)
		}
		n.Metrics.FetchFailures.Inc()
		return true, copyErr
	}
	if cand.Node == origin {
		n.Metrics.OriginFetches.Inc()
	} else {
		n.Metrics.PeerHits.Inc()
	}
	committedSpill := false
	if segSpill != nil {
		// Segment-granular adoption never mints a catalog replica record
		// (even at full coverage): segments are pieces, individually
		// evictable, so the holder claim stays with whole-file replicas
		// and generator-backed datasets. finish aborts a half-received
		// tail segment and keeps everything that committed.
		segSpill.finish()
		n.noteSegSpillErr(spillW)
	}
	if spill != nil {
		var verr error
		if spillW.err == nil && verifier != nil {
			verr = verifier.Close()
		}
		switch {
		case errors.Is(spillW.err, ingest.ErrDigestMismatch):
			// A corrupt block fails the verifier mid-stream, which
			// surfaces through the sink as a write error: corruption,
			// not a spill problem.
			spill.Abort()
			n.Metrics.IngestDigestRejects.Inc()
		case spillW.err != nil:
			spill.Abort()
			n.Metrics.StoreSpillFailures.Inc()
		case verr != nil:
			// The peer's bytes do not match the manifest: never adopt them.
			spill.Abort()
			n.Metrics.IngestDigestRejects.Inc()
		default:
			if err := spill.Commit(total); err != nil {
				n.Metrics.StoreSpillFailures.Inc()
			} else {
				n.Metrics.StoreSpills.Inc()
				committedSpill = true
			}
		}
	}
	// Pull-through only on full-body fetches: a stripe proves nothing
	// about the rest of the dataset, so partial transfers never mint a
	// replica record. (The metadata registration below is what announces
	// the replica; for a seeded dataset a failed spill just means the
	// bytes get materialized from the generator on the next local hit —
	// but an opaque dataset has no generator, so its replica record
	// exists only when digest-verified bytes actually committed.)
	if pullThrough && (!opaque || committedSpill) {
		n.cachePulled(id, total)
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
// connection returns to the transport's idle pool instead of being torn
// down — without this, every failed peer hop costs the next attempt a
// TCP handshake.
func drainBody(body io.Reader) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, drainBodyLimit))
}

// bestEffortWriter forwards writes to w until the first error, then
// swallows everything: the primary stream (the client response) must
// never fail because a secondary sink (the disk spill) did.
type bestEffortWriter struct {
	w   io.Writer
	err error
}

func (b *bestEffortWriter) Write(p []byte) (int, error) {
	if b.err == nil {
		if _, err := b.w.Write(p); err != nil {
			b.err = err
		}
	}
	return len(p), nil
}
