package server

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"scdn/internal/storage"
)

// Segmented large-object delivery (ROADMAP item 4). Datasets at or
// above Config.SegmentThreshold are stored and served as fixed-size
// segment files (storage/segment.go), each an independent LRU entry in
// the replica volume: a giant dataset can be partially resident, its
// cold tail evicted and re-materialized per segment on demand instead
// of all-or-nothing. Segment boundaries are ingest block boundaries,
// so every segment verifies against the manifest's block digests, and
// the rolled-up segment digests publish through /v1/resolve as an
// HLS-style segment index. GET /v1/fetch/{dataset}/segments/{n} serves
// one segment (proxying to a peer holder when this edge has neither
// the bytes nor a generator), and pull-through adoption happens at
// segment granularity: a proxied large-object stream commits each
// verified segment as it completes, so even an interrupted pull leaves
// servable segments behind.

// segmented reports whether a dataset of this size takes the segmented
// layout on this node.
func (n *Node) segmented(total int64) bool {
	return n.cfg.SegmentThreshold > 0 && total >= n.cfg.SegmentThreshold
}

// errSegment covers segment files that vanished or went stale between
// index lookup and serve; static so the serve loop never formats an
// error on a path that can run per segment.
var errSegment = errors.New("server: segment unavailable")

// ensureSegment makes segment seg of the dataset resident, reporting
// success. The warm path is one interned-key map lookup.
func (n *Node) ensureSegment(id storage.DatasetID, seg, total int64) bool {
	if n.vol.HasSegment(id, seg) {
		return true
	}
	return n.materializeSegment(id, seg, total)
}

// materializeSegment writes one segment's deterministic bytes into the
// replica volume (single-flight per segment) and reports whether a
// committed segment now exists. Store counters account per segment, so
// a ranged fetch that re-materializes two evicted segments moves
// exactly two segments' worth of scdn_store_materialize_bytes_total.
func (n *Node) materializeSegment(id storage.DatasetID, seg, total int64) bool {
	segSize := n.cfg.SegmentSize
	extent := storage.SegmentExtent(total, segSize, seg)
	if extent <= 0 {
		return false
	}
	did, err := n.vol.MaterializeSegment(id, seg, extent, func(w io.Writer) error {
		_, err := copyBuffered(w, io.NewSectionReader(payloadBlock(id), seg*segSize, extent))
		return err
	})
	if err != nil {
		n.Metrics.StoreSpillFailures.Inc()
		return false
	}
	if did {
		n.Metrics.StoreMaterializations.Inc()
		n.Metrics.StoreMaterializedBytes.Add(uint64(extent))
	}
	return true
}

// copySegmentRange streams the dataset window [off, off+length) by
// walking its segments: each one is opened (materialized first when
// evicted), advised for sequential readahead on a fresh descriptor,
// seeked, and copied. When a segment is streamed end to end its page
// cache is dropped behind the copy (posix_fadvise DONTNEED) unless
// Config.KeepSegmentPages — one giant transfer must not evict the warm
// small-object working set. With a scratch the warm path allocates
// nothing: interned segment keys, pooled descriptors, and the pooled
// LimitedReader that net/http unwraps onto sendfile.
func (n *Node) copySegmentRange(dst io.Writer, sc *fetchScratch, id storage.DatasetID,
	total, off, length int64) (written int64, _ error) {
	segSize := n.cfg.SegmentSize
	drop := !n.cfg.KeepSegmentPages
	for length > 0 {
		seg := off / segSize
		extent := storage.SegmentExtent(total, segSize, seg)
		if extent <= 0 {
			return written, errSegment
		}
		segOff := off - seg*segSize
		chunk := extent - segOff
		if chunk > length {
			chunk = length
		}
		f, size, fresh, ok := n.vol.OpenSegment(id, seg)
		if !ok {
			if !n.materializeSegment(id, seg, total) {
				return written, errSegment
			}
			if f, size, fresh, ok = n.vol.OpenSegment(id, seg); !ok {
				return written, errSegment
			}
		}
		if size != extent {
			// Stale segment (catalog size changed under it): drop it and
			// re-materialize on the next access, never serve wrong bytes.
			n.vol.ReleaseSegment(id, seg, f)
			n.vol.Remove(storage.SegmentKey(id, seg))
			return written, errSegment
		}
		if fresh && storage.FadviseSequential(f) {
			n.Metrics.StoreFadviseSequential.Inc()
		}
		file, err := f.FileAt(segOff)
		if err != nil {
			n.vol.ReleaseSegment(id, seg, f)
			return written, err
		}
		var m int64
		if sc != nil {
			sc.lr = io.LimitedReader{R: file, N: chunk}
			m, err = io.Copy(dst, &sc.lr)
		} else {
			m, err = io.CopyN(dst, file, chunk)
		}
		written += m
		if err == nil && drop && segOff == 0 && chunk == extent {
			// Complete sequential pass: this serve touched every page of
			// the segment once and will not come back for them.
			if storage.FadviseDontNeed(f) {
				n.Metrics.StoreFadviseDontNeed.Inc()
			}
		}
		n.vol.ReleaseSegment(id, seg, f)
		if err != nil {
			return written, err
		}
		off += chunk
		length -= chunk
	}
	return written, nil
}

// handleFetchSegment is GET /v1/fetch/{dataset}/segments/{n}: one
// whole segment of a segmented dataset as a plain 200 — the HLS-style
// chunk surface that lets clients and peers move large objects in
// independently fetchable, independently verifiable pieces.
func (n *Node) handleFetchSegment(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := storage.DatasetID(r.PathValue("dataset"))
	fromPeer := r.Header.Get(peerHeader) != ""
	if fromPeer {
		n.Metrics.PeerSegmentFetchRequests.Inc()
	} else {
		n.Metrics.SegmentFetchRequests.Inc()
		defer func() { n.Metrics.SegmentFetchLatency.Observe(time.Since(start).Seconds()) }()
	}
	fail := func(status int, err error) {
		if !fromPeer {
			n.Metrics.SegmentFetchFailures.Inc()
		}
		writeError(w, status, err)
	}
	if _, err := n.auth.Authorize(bearerToken(r), id); err != nil {
		n.Metrics.AuthDenied.Inc()
		fail(http.StatusForbidden, err)
		return
	}
	total, err := n.catalog.DatasetBytes(id)
	if err != nil {
		fail(http.StatusNotFound, err)
		return
	}
	if !n.segmented(total) {
		fail(http.StatusNotFound, fmt.Errorf("server: dataset %q is not segmented", id))
		return
	}
	count := storage.SegmentCount(total, n.cfg.SegmentSize)
	seg, perr := strconv.ParseInt(r.PathValue("n"), 10, 64)
	if perr != nil || seg < 0 || seg >= count {
		fail(http.StatusNotFound,
			fmt.Errorf("server: segment %q of %q outside [0, %d)", r.PathValue("n"), id, count))
		return
	}
	// The segment is the one window [seg·size, extent) served as a 200:
	// from a whole-file replica (opaque uploads commit as one file), a
	// per-segment file (cached from a peer pull or materialized), or the
	// generator.
	win := byteRange{off: seg * n.cfg.SegmentSize, n: storage.SegmentExtent(total, n.cfg.SegmentSize, seg)}
	if src, ok := n.localSource(id, total, win.off, win.off+win.n, n.hasLocal(id)); ok {
		n.writeRanges(w, r, &src, []byteRange{win}, false, total)
		n.releaseSource(&src)
		return
	}
	if fromPeer {
		// Peer hops never fan out again: a fallback chain is one hop.
		fail(http.StatusNotFound,
			fmt.Errorf("server: node %d does not hold segment %d of %q", n.cfg.Node, seg, id))
		return
	}
	// Segment pull-through adopts exactly this segment, verified against
	// its manifest window, and never mints a catalog replica record for
	// holding a piece of a dataset.
	pull := peerPull{
		path:   "/v1/fetch/" + url.PathEscape(string(id)) + "/segments/" + strconv.FormatInt(seg, 10),
		status: http.StatusOK, length: win.n, failures: &n.Metrics.SegmentFetchFailures,
	}
	if r.Method != http.MethodHead && !n.vol.HasSegment(id, seg) {
		pull.sink = n.pullSink(id, total, win.off, win.off+win.n)
	}
	n.pullFromPeers(w, r, id, &pull, fail)
	pull.sink.finish()
}

// segmentDigestIndex returns the dataset's rolled-up segment digests
// in hex (the /v1/resolve segment index), computed once per dataset
// and cached — the roll-up hashes 32 bytes per ingest block, never
// payload bytes, but resolves should still not repeat it. Nil when the
// dataset has no manifest, its size disagrees with the catalog, or its
// block size does not divide the segment size.
func (n *Node) segmentDigestIndex(id storage.DatasetID, total int64) []string {
	n.segIdxMu.Lock()
	cached, ok := n.segIdx[id]
	n.segIdxMu.Unlock()
	if ok {
		return cached
	}
	man, hasMan := n.manifests.Get(id)
	if !hasMan || man.Size != total || n.cfg.SegmentSize%man.BlockSize != 0 {
		return nil
	}
	digests, err := man.SegmentDigests(n.cfg.SegmentSize)
	if err != nil {
		return nil
	}
	hexes := make([]string, len(digests))
	for i, d := range digests {
		hexes[i] = hex.EncodeToString(d[:])
	}
	n.segIdxMu.Lock()
	if n.segIdx == nil {
		n.segIdx = make(map[storage.DatasetID][]string)
	}
	n.segIdx[id] = hexes
	n.segIdxMu.Unlock()
	return hexes
}
