package server

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"scdn/internal/ingest"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
)

// Live user ingest: PUT /v1/datasets/{dataset} streams researcher bytes
// into the receiving edge's disk volume through a spill,
// verifies them against the digest the client declared up front, and —
// only then, atomically — publishes the dataset: manifest in the shared
// store, group scope in the middleware, origin record in the catalog,
// user-partition record in the repository. A digest mismatch, short
// stream, or crashed client leaves no state at all: no reserved
// extent, no catalog entry, no manifest.
//
// Large uploads arrive as parallel Content-Range stripes (the upload
// mirror of the striped fetch). Stripes of one dataset share an
// uploadSession; the stripe whose bytes complete the session performs
// the verify-and-publish and answers 201 with the accepted manifest,
// the others answer 204.

// uploadSession is one in-flight (possibly striped) upload.
type uploadSession struct {
	spill  *storage.Spill
	user   socialnet.UserID
	group  string
	total  int64
	digest [sha256.Size]byte

	mu       sync.Mutex
	got      int64 // bytes acknowledged by completed stripes
	inflight int   // stripes currently writing
	failed   bool  // a stripe failed; last one out aborts the spill
	aborted  bool
	touched  time.Time
}

// touch refreshes the session's idle clock. Caller holds sess.mu.
func (s *uploadSession) touchLocked() { s.touched = time.Now() }

// maxUploadDatasetID caps the dataset-ID path segment (matches the
// manifest codec's own cap, checked early so a hostile URL fails fast).
const maxUploadDatasetID = 1024

// uploadIdleTimeout is how long a striped upload session may sit with
// no arriving stripe before the sweeper aborts it and deletes its temp
// file.
const uploadIdleTimeout = 15 * time.Second

// handleUpload is PUT /v1/datasets/{dataset}.
func (n *Node) handleUpload(w http.ResponseWriter, r *http.Request) {
	id := storage.DatasetID(r.PathValue("dataset"))
	user, err := n.auth.Authenticate(bearerToken(r))
	if err != nil {
		n.Metrics.AuthDenied.Inc()
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	if len(id) > maxUploadDatasetID {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("server: dataset ID exceeds %d bytes", maxUploadDatasetID))
		return
	}
	digest, err := parseDigestHeader(r.Header.Get(ingest.DigestHeader))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	off, length, total, err := uploadExtent(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Re-publishing an existing dataset is a conflict, not an overwrite:
	// a dataset's content address never silently changes.
	if _, err := n.catalog.DatasetBytes(id); err == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("server: dataset %q already published", id))
		return
	}
	if _, ok := n.manifests.Get(id); ok {
		writeError(w, http.StatusConflict, fmt.Errorf("server: dataset %q already has a manifest", id))
		return
	}
	if total > n.vol.Quota() {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: dataset %q (%d bytes) exceeds volume quota %d", id, total, n.vol.Quota()))
		return
	}

	sess, status, err := n.uploadSessionFor(id, user, r.Header.Get(ingest.GroupHeader), total, digest)
	if err != nil {
		writeError(w, status, err)
		return
	}
	defer n.uploadStripeDone(id, sess)

	// Stream this stripe's bytes into the shared spill at its offset.
	// WriteAt is stripe-concurrent; a failure poisons the spill for all.
	written, cerr := copyBuffered(io.NewOffsetWriter(sess.spill, off), io.LimitReader(r.Body, length))
	if cerr != nil || written != length {
		if cerr == nil {
			cerr = fmt.Errorf("server: upload stripe for %q moved %d of %d bytes", id, written, length)
		}
		n.failUpload(id, sess)
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: upload %q: %w", id, cerr))
		return
	}

	sess.mu.Lock()
	sess.got += length
	sess.touchLocked()
	done := !sess.failed && sess.got == sess.total
	sess.mu.Unlock()
	if !done {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	n.finalizeUpload(w, id, sess)
}

// uploadSessionFor joins the dataset's in-flight session or opens a new
// one (creating the spill and checking group membership). The returned
// session has this stripe registered as in flight.
func (n *Node) uploadSessionFor(id storage.DatasetID, user socialnet.UserID,
	group string, total int64, digest [sha256.Size]byte) (*uploadSession, int, error) {
	n.upMu.Lock()
	defer n.upMu.Unlock()
	if sess, ok := n.uploads[id]; ok {
		// Every stripe of one upload must describe the same dataset.
		if sess.total != total || sess.digest != digest {
			return nil, http.StatusConflict,
				fmt.Errorf("server: upload %q: stripe disagrees with session (size/digest)", id)
		}
		sess.mu.Lock()
		sess.inflight++
		sess.touchLocked()
		sess.mu.Unlock()
		return sess, 0, nil
	}
	if group == "" {
		return nil, http.StatusBadRequest,
			fmt.Errorf("server: upload %q: missing %s header", id, ingest.GroupHeader)
	}
	if !n.auth.InGroup(user, group) {
		n.Metrics.AuthDenied.Inc()
		return nil, http.StatusForbidden,
			fmt.Errorf("server: user %d is not a member of group %q", user, group)
	}
	spill, err := n.vol.NewSpill(id)
	if err != nil {
		n.Metrics.StoreSpillFailures.Inc()
		return nil, http.StatusInternalServerError, err
	}
	sess := &uploadSession{
		spill: spill, user: user, group: group,
		total: total, digest: digest, inflight: 1,
	}
	sess.touchLocked()
	n.uploads[id] = sess
	return sess, 0, nil
}

// uploadStripeDone deregisters an in-flight stripe; the last stripe out
// of a failed session aborts the spill (WriteAt must never race a
// close).
func (n *Node) uploadStripeDone(id storage.DatasetID, sess *uploadSession) {
	sess.mu.Lock()
	sess.inflight--
	abort := sess.failed && !sess.aborted && sess.inflight == 0
	if abort {
		sess.aborted = true
	}
	sess.mu.Unlock()
	if abort {
		sess.spill.Abort()
	}
}

// failUpload marks the session failed and removes it from the index so
// no new stripe joins; the spill dies with the last in-flight stripe
// (uploadStripeDone).
func (n *Node) failUpload(id storage.DatasetID, sess *uploadSession) {
	sess.mu.Lock()
	sess.failed = true
	sess.mu.Unlock()
	n.upMu.Lock()
	if n.uploads[id] == sess {
		delete(n.uploads, id)
	}
	n.upMu.Unlock()
}

// finalizeUpload verifies the completed spill against the declared
// digest and publishes the dataset. Runs on the stripe that completed
// the byte count; every other stripe has finished writing (each adds to
// got only after its copy returned).
func (n *Node) finalizeUpload(w http.ResponseWriter, id storage.DatasetID, sess *uploadSession) {
	n.upMu.Lock()
	if n.uploads[id] == sess {
		delete(n.uploads, id)
	}
	n.upMu.Unlock()

	// Hash the spilled bytes before the commit (CommitVerified's reader
	// is a SectionReader over them, so their blocks hash on every
	// core): the block digests of exactly the bytes that hit the disk,
	// whose roll-up must equal the declared digest. The committed origin
	// copy is pinned — an opaque dataset's last byte must never fall to
	// LRU pressure.
	var man *ingest.Manifest
	err := sess.spill.CommitVerified(sess.total, func(r io.Reader) error {
		var err error
		if man, err = ingest.HashAt(r.(io.ReaderAt), sess.total, id, true); err != nil {
			return err
		}
		if man.Digest != sess.digest {
			return fmt.Errorf("server: upload %q: content does not hash to declared digest", id)
		}
		return nil
	}, true)
	if err != nil {
		n.Metrics.IngestDigestRejects.Inc()
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	// Publish: manifest first (fetch verification needs it the moment a
	// catalog entry exists), then group scope, then the catalog origin
	// record that makes the dataset resolvable.
	if err := n.manifests.Put(man); err != nil {
		n.vol.Remove(id)
		writeError(w, http.StatusConflict, err)
		return
	}
	if err := n.auth.RegisterDataset(id, sess.group); err != nil {
		n.manifests.Delete(id)
		n.vol.Remove(id)
		writeError(w, http.StatusConflict, err)
		return
	}
	if err := n.catalog.RegisterDataset(id, n.cfg.Node, sess.total); err != nil {
		// A racing upload of the same ID through another edge won the
		// publish; withdraw ours completely.
		n.manifests.Delete(id)
		n.vol.Remove(id)
		writeError(w, http.StatusConflict, err)
		return
	}
	// The uploaded bytes land in the user partition (Section V-A: the
	// researcher-managed half of the member repository). Best effort —
	// the catalog record above is what makes the dataset servable.
	n.repoMu.Lock()
	_ = n.repo.StoreUser(id, sess.total, n.now())
	n.repoMu.Unlock()

	n.Metrics.IngestUploads.Inc()
	n.Metrics.IngestUploadBytes.Add(uint64(sess.total))

	body, err := ingest.EncodeManifest(man)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_, _ = w.Write(body)
}

// parseDigestHeader decodes the declared dataset digest.
func parseDigestHeader(h string) ([sha256.Size]byte, error) {
	if h == "" {
		var d [sha256.Size]byte
		return d, fmt.Errorf("server: missing %s header", ingest.DigestHeader)
	}
	return ingest.ParseDigest(h)
}

// uploadExtent resolves the byte range this request carries and the
// dataset's total size: either a plain body (no Content-Range, total =
// Content-Length) or one stripe of a parallel upload ("Content-Range:
// bytes a-b/total").
func uploadExtent(r *http.Request) (off, length, total int64, err error) {
	cr := r.Header.Get("Content-Range")
	if cr == "" {
		if r.ContentLength <= 0 {
			return 0, 0, 0, fmt.Errorf("server: upload needs a known positive Content-Length")
		}
		return 0, r.ContentLength, r.ContentLength, nil
	}
	off, length, total, err = parseContentRange(cr)
	if err != nil {
		return 0, 0, 0, err
	}
	if r.ContentLength >= 0 && r.ContentLength != length {
		return 0, 0, 0, fmt.Errorf("server: Content-Length %d disagrees with Content-Range %q",
			r.ContentLength, cr)
	}
	return off, length, total, nil
}

// parseContentRange parses "bytes a-b/total" (the only form uploads
// accept: every stripe knows exactly where it lands).
func parseContentRange(cr string) (off, length, total int64, err error) {
	bad := func() (int64, int64, int64, error) {
		return 0, 0, 0, fmt.Errorf("server: bad Content-Range %q (want \"bytes a-b/total\")", cr)
	}
	rest, ok := strings.CutPrefix(cr, "bytes ")
	if !ok {
		return bad()
	}
	span, totalStr, ok := strings.Cut(rest, "/")
	if !ok {
		return bad()
	}
	aStr, bStr, ok := strings.Cut(span, "-")
	if !ok {
		return bad()
	}
	a, errA := parseInt64(aStr)
	b, errB := parseInt64(bStr)
	t, errT := parseInt64(totalStr)
	if errA != nil || errB != nil || errT != nil {
		return bad()
	}
	if a < 0 || b < a || t <= b {
		return bad()
	}
	return a, b - a + 1, t, nil
}

// parseInt64 parses a non-negative decimal without accepting signs or
// whitespace.
func parseInt64(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("non-digit")
		}
		d := int64(c - '0')
		if v > (1<<63-1-d)/10 {
			return 0, fmt.Errorf("overflow")
		}
		v = v*10 + d
	}
	return v, nil
}

// expireUploads aborts upload sessions idle past uploadIdleTimeout: a
// client that died mid-stripe must not pin a spill's pack (or the dataset
// ID) forever. Called from the repair sweeper.
func (n *Node) expireUploads() {
	cutoff := time.Now().Add(-uploadIdleTimeout)
	var stale []*uploadSession
	n.upMu.Lock()
	for id, sess := range n.uploads {
		sess.mu.Lock()
		idle := sess.inflight == 0 && sess.touched.Before(cutoff)
		if idle && !sess.aborted {
			sess.failed, sess.aborted = true, true
			stale = append(stale, sess)
		}
		sess.mu.Unlock()
		if idle {
			delete(n.uploads, id)
			n.Metrics.IngestUploadExpired.Inc()
		}
	}
	n.upMu.Unlock()
	for _, sess := range stale {
		sess.spill.Abort()
	}
}

// abortUploads discards every upload session (node stopping or
// crashed). Sessions with stripes still in flight are marked failed and
// cleaned up by the last stripe's exit.
func (n *Node) abortUploads() {
	var dead []*uploadSession
	n.upMu.Lock()
	for id, sess := range n.uploads {
		sess.mu.Lock()
		sess.failed = true
		if sess.inflight == 0 && !sess.aborted {
			sess.aborted = true
			dead = append(dead, sess)
		}
		sess.mu.Unlock()
		delete(n.uploads, id)
	}
	n.upMu.Unlock()
	for _, sess := range dead {
		sess.spill.Abort()
	}
}
