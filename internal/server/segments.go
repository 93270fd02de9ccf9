package server

import (
	"errors"
	"io"

	"scdn/internal/storage"
)

// Segmented large-object delivery (ROADMAP item 4). Datasets at or
// above Config.SegmentThreshold are stored and served as fixed-size
// segment files (storage/segment.go), each an independent LRU entry in
// the replica volume: a giant dataset can be partially resident, its
// cold tail evicted and re-materialized per segment on demand instead
// of all-or-nothing. Segment boundaries are ingest block boundaries,
// so every segment verifies against the manifest's block digests, and
// /v1/resolve publishes the segment size and count.
// GET /v1/fetch/{dataset}/segments/{n} is the fetch route over one
// segment's window (serveFetch), and pull-through adoption happens at
// segment granularity: a proxied large-object stream commits each
// verified segment as it completes, so even an interrupted pull leaves
// servable segments behind.

// segmented reports whether a dataset of this size takes the segmented
// layout on this node.
func (n *Node) segmented(total int64) bool {
	return n.cfg.SegmentThreshold > 0 && total >= n.cfg.SegmentThreshold
}

// errSegment covers segment entries that vanished between index lookup
// and serve; static so the serve loop never formats an error on a path
// that can run per segment.
var errSegment = errors.New("server: segment unavailable")

// ensureSegment makes segment seg of the dataset resident, reporting
// success. The warm path is one interned-key map lookup.
func (n *Node) ensureSegment(id storage.DatasetID, seg, total int64) bool {
	return n.vol.HasSegment(id, seg) || n.materialize(storage.SegmentKey(id, seg), id,
		seg*n.cfg.SegmentSize, storage.SegmentExtent(total, n.cfg.SegmentSize, seg))
}

// copySegmentRange streams the dataset window [off, off+length) of src
// by walking its segments: each one is opened (materialized first when
// evicted, if src may derive; else the walk fails), advised for
// sequential readahead on a fresh descriptor, seeked, and copied. When
// a segment is streamed end to end its page cache is dropped behind the copy (posix_fadvise DONTNEED) unless
// Config.KeepSegmentPages — one giant transfer must not evict the warm
// small-object working set. With a scratch the warm path allocates
// nothing: interned segment keys, pooled descriptors, and the pooled
// LimitedReader that net/http unwraps onto sendfile.
func (n *Node) copySegmentRange(dst io.Writer, sc *fetchScratch, src *fetchSource,
	off, length int64) (written int64, _ error) {
	id, total, segSize := src.id, src.total, n.cfg.SegmentSize
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
		f, _, fresh, ok := n.vol.OpenSegment(id, seg)
		if !ok {
			if !src.derive || !n.materialize(storage.SegmentKey(id, seg), id, seg*segSize, extent) {
				return written, errSegment
			}
			if f, _, fresh, ok = n.vol.OpenSegment(id, seg); !ok {
				return written, errSegment
			}
		}
		if fresh && storage.FadviseSequential(f) {
			n.Metrics.StoreFadviseSequential.Inc()
		}
		m, err := copyExtent(dst, sc, f, segOff, chunk)
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
