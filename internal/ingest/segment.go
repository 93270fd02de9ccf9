package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Segment digests: the manifest's per-block digests rolled up to the
// serving plane's segment granularity. A segment digest is the SHA-256
// of the concatenated block digests the segment covers (rollUp, the
// same roll-up the dataset digest is over all blocks) — cheap to
// compute (hashes 32 bytes per block, never payload bytes), stable
// under any segment size that is a whole number of blocks, and enough
// for a peer to advertise or spot-check a segment without shipping the
// full manifest. Byte-level verification of a pulled segment still
// goes through NewRangeVerifier, whose block alignment every segment
// boundary satisfies by construction.

// SegmentBlocks returns how many manifest blocks one segSize-byte
// segment spans, or an error when segSize is not a positive multiple
// of the manifest's block size.
func (m *Manifest) SegmentBlocks(segSize int64) (int64, error) {
	if segSize <= 0 || m.BlockSize <= 0 || segSize%m.BlockSize != 0 {
		return 0, fmt.Errorf("ingest: segment size %d not a positive multiple of block size %d",
			segSize, m.BlockSize)
	}
	return segSize / m.BlockSize, nil
}

// SegmentDigest rolls up the block digests of segment i (of segSize
// bytes) into one digest.
func (m *Manifest) SegmentDigest(segSize, i int64) ([sha256.Size]byte, error) {
	var d [sha256.Size]byte
	per, err := m.SegmentBlocks(segSize)
	if err != nil {
		return d, err
	}
	segs := BlockCount(m.Size, segSize)
	if i < 0 || i >= segs {
		return d, fmt.Errorf("ingest: segment %d of %q outside [0, %d)", i, m.Dataset, segs)
	}
	lo := i * per
	hi := lo + per
	if n := int64(len(m.Blocks)); hi > n {
		hi = n
	}
	return rollUp(m.Blocks[lo:hi]), nil
}

// SegmentDigestHex is SegmentDigest in lowercase hex (the wire form
// the segment endpoint advertises).
func (m *Manifest) SegmentDigestHex(segSize, i int64) (string, error) {
	d, err := m.SegmentDigest(segSize, i)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(d[:]), nil
}

// SegmentDigests rolls up every segment's digest at the given segment
// size.
func (m *Manifest) SegmentDigests(segSize int64) ([][sha256.Size]byte, error) {
	if _, err := m.SegmentBlocks(segSize); err != nil {
		return nil, err
	}
	segs := BlockCount(m.Size, segSize)
	out := make([][sha256.Size]byte, segs)
	for i := int64(0); i < segs; i++ {
		d, err := m.SegmentDigest(segSize, i)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}
