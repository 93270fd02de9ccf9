package server

import (
	"errors"

	"scdn/internal/storage"
)

// Segmented large-object delivery (ROADMAP item 4). Datasets at or
// above Config.SegmentThreshold are stored and served as fixed-size
// segment files (storage/segment.go), each an independent LRU entry in
// the replica volume: a giant dataset can be partially resident, its
// cold tail evicted and re-materialized per segment on demand instead
// of all-or-nothing. Segment boundaries are ingest block boundaries,
// so every segment verifies against the manifest's block digests, and
// /v1/resolve publishes the segment size and count. A local serve
// walks a dataset's pieces — its whole replica, else its segments —
// holding the one piece it reads (fetchSource, openPiece).
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

// errSegment ends a non-deriving walk at a segment its volume lacks;
// static so the serve loop never formats an error on a path that can
// run per segment.
var errSegment = errors.New("server: segment unavailable")

// openPiece releases src's open piece and opens piece i, reporting
// whether its bytes can be read: a deriving source materializes a
// missing piece first and reads it from the generator when the volume
// cannot hold it; any other walk fails rather than write generator
// bytes in place of, say, an opaque upload's.
func (n *Node) openPiece(src *fetchSource, i int64) bool {
	n.releasePiece(src)
	if !n.openHandle(src, i) {
		if !src.derive {
			return false
		}
		key, off := src.id, i*src.piece
		if src.segs {
			key = storage.SegmentKey(src.id, i)
		}
		if (!n.materialize(key, src.id, off, storage.SegmentExtent(src.total, src.piece, i)) ||
			!n.openHandle(src, i)) && src.gen == nil {
			src.gen = payloadBlock(src.id)
		}
	}
	src.idx = i
	return true
}

// openHandle opens the volume entry of src's piece i, advising a fresh
// segment descriptor for sequential readahead.
func (n *Node) openHandle(src *fetchSource, i int64) (ok bool) {
	if !src.segs {
		src.h, _, ok = n.vol.Open(src.id)
		return ok
	}
	var fresh bool
	if src.h, _, fresh, ok = n.vol.OpenSegment(src.id, i); fresh && storage.FadviseSequential(src.h) {
		n.Metrics.StoreFadviseSequential.Inc()
	}
	return ok
}

// releasePiece releases the handle of src's open piece, if any.
func (n *Node) releasePiece(src *fetchSource) {
	if src.segs && src.h != nil {
		n.vol.ReleaseSegment(src.id, src.idx, src.h)
	} else {
		n.vol.Release(src.id, src.h) // nil-safe
	}
	src.h, src.idx = nil, -1
}
