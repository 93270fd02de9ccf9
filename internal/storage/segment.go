package storage

import (
	"strconv"
	"strings"
)

// Segmented large-object layout (ROADMAP item 4, the GiB half of raw
// speed). Datasets above a serving-plane threshold are not stored as
// one flat extent: their bytes live as fixed-size segments, each an
// independent DiskVolume entry with its own LRU recency. That turns
// quota pressure from all-or-nothing (a 10 GiB dataset either fits or
// is unservable) into partial residency — the hot prefix of a giant
// dataset stays on disk while its cold tail is evicted and
// re-materialized per segment on demand. Segment sizes are multiples of
// the ingest block size, so every segment boundary is a digest
// boundary: a segment can be verified against the manifest's rolled-up
// block digests without touching any other segment's bytes.
const (
	// DefaultSegmentSize is the serving plane's default segment size:
	// 64 ingest blocks (64 × 64 KiB). Large enough that sequential
	// serves ride sendfile in long runs, small enough that partial
	// residency and peer segment adoption are meaningful.
	DefaultSegmentSize = 4 << 20

	// DefaultSegmentThreshold is the default size at or above which a
	// dataset is stored and served segmented.
	DefaultSegmentThreshold = 16 << 20
)

// segKeySep separates a dataset ID from its segment ordinal inside a
// segment entry's key. The NUL byte cannot appear in IDs that arrive
// over HTTP paths, so segment keys can never collide with dataset keys.
const segKeySep = "\x00seg\x00"

// SegmentCount returns how many segSize-byte segments cover total
// bytes (the last segment may be short). Zero when either is
// non-positive.
func SegmentCount(total, segSize int64) int64 {
	if total <= 0 || segSize <= 0 {
		return 0
	}
	return (total + segSize - 1) / segSize
}

// SegmentExtent returns the byte length of segment i of a total-byte
// dataset cut into segSize-byte segments — segSize for all but
// possibly the last. Zero when i is out of range.
func SegmentExtent(total, segSize, i int64) int64 {
	n := SegmentCount(total, segSize)
	if i < 0 || i >= n {
		return 0
	}
	if i == n-1 {
		return total - i*segSize
	}
	return segSize
}

// SegmentKey derives the volume key under which segment i of a dataset
// is stored. Segment entries are ordinary DiskVolume entries — LRU,
// quota, FD pooling, and crash recovery all apply per segment.
func SegmentKey(id DatasetID, i int64) DatasetID {
	return DatasetID(string(id) + segKeySep + strconv.FormatInt(i, 10))
}

// ParseSegmentKey splits a volume key produced by SegmentKey back into
// the dataset and segment ordinal. ok is false for whole-dataset keys.
func ParseSegmentKey(key DatasetID) (id DatasetID, seg int64, ok bool) {
	s := string(key)
	at := strings.LastIndex(s, segKeySep)
	if at < 0 {
		return "", 0, false
	}
	n, err := strconv.ParseInt(s[at+len(segKeySep):], 10, 64)
	if err != nil || n < 0 {
		return "", 0, false
	}
	return DatasetID(s[:at]), n, true
}

// segmentKey returns the interned key for segment i of id. The warm
// serve path hits the read-locked map and allocates nothing; keys are
// built once per (dataset, segment) and reused for every open after.
func (v *DiskVolume) segmentKey(id DatasetID, i int64) DatasetID {
	v.segMu.RLock()
	if ks := v.segKeys[id]; int64(len(ks)) > i {
		k := ks[i]
		v.segMu.RUnlock()
		return k
	}
	v.segMu.RUnlock()
	v.segMu.Lock()
	ks := v.segKeys[id]
	for int64(len(ks)) <= i {
		ks = append(ks, SegmentKey(id, int64(len(ks))))
	}
	v.segKeys[id] = ks
	k := ks[i]
	v.segMu.Unlock()
	return k
}

// OpenSegment returns a read handle on segment i of the dataset,
// exactly like Open but keyed per segment. fresh reports that the
// handle's descriptor came from open(2) rather than the pack's pool —
// the caller applies sequential readahead advice once per descriptor,
// not per serve.
func (v *DiskVolume) OpenSegment(id DatasetID, i int64) (h *Handle, size int64, fresh, ok bool) {
	return v.open(v.segmentKey(id, i))
}

// ReleaseSegment returns a handle obtained from OpenSegment to the
// pool of the segment's pack.
func (v *DiskVolume) ReleaseSegment(id DatasetID, i int64, h *Handle) {
	v.Release(v.segmentKey(id, i), h)
}

// HasSegment reports whether segment i of the dataset is resident.
func (v *DiskVolume) HasSegment(id DatasetID, i int64) bool {
	return v.Has(v.segmentKey(id, i))
}

// ResidentSegments counts how many of the dataset's first count
// segments are currently resident (partial-residency inspection).
func (v *DiskVolume) ResidentSegments(id DatasetID, count int64) int64 {
	var n int64
	v.mu.Lock()
	for i := int64(0); i < count; i++ {
		if _, ok := v.items[SegmentKey(id, i)]; ok {
			n++
		}
	}
	v.mu.Unlock()
	return n
}

// NewSegmentSpill opens a spill that commits as segment i of the
// dataset — the adoption path for segments pulled from peers.
func (v *DiskVolume) NewSegmentSpill(id DatasetID, i int64) (*Spill, error) {
	return v.NewSpill(v.segmentKey(id, i))
}
