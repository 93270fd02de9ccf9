package ingest

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
)

// ErrDigestMismatch marks verification failures caused by the bytes
// themselves — a block digest disagreeing with the manifest, or a
// manifest digest that is not the roll-up of its block digests — as
// opposed to I/O or framing problems. Callers classify with errors.Is
// to count corruption separately from plumbing errors.
var ErrDigestMismatch = errors.New("digest mismatch")

// RangeVerifier incrementally checks a byte stream against a manifest's
// block digests over [off, off+length). It is an io.WriteCloser:
// verification runs in constant memory as the stream passes through, a
// corrupt block fails the Write that completes it, and Close fails on a
// truncated stream. The range must start on a block boundary and end on
// one (or at the dataset's end) — exactly what aligned stripe planning
// produces — because a partial block cannot be checked against its
// digest.
type RangeVerifier struct {
	m         *Manifest
	idx       int64 // current block index
	inBlock   int64 // bytes of the current block consumed
	remaining int64 // bytes still expected
	off       int64 // absolute offset of the next expected byte
	block     hash.Hash
}

// NewRangeVerifier builds a verifier for the manifest's bytes
// [off, off+length). off must be block-aligned and the range must end at
// a block boundary or at Size.
func (m *Manifest) NewRangeVerifier(off, length int64) (*RangeVerifier, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if off < 0 || length <= 0 || off+length > m.Size {
		return nil, fmt.Errorf("ingest: range [%d, %d) outside dataset %q (%d bytes)",
			off, off+length, m.Dataset, m.Size)
	}
	if off%m.BlockSize != 0 {
		return nil, fmt.Errorf("ingest: range offset %d not aligned to %d-byte blocks", off, m.BlockSize)
	}
	if end := off + length; end%m.BlockSize != 0 && end != m.Size {
		return nil, fmt.Errorf("ingest: range end %d neither block-aligned nor dataset end %d", end, m.Size)
	}
	return &RangeVerifier{
		m:         m,
		idx:       off / m.BlockSize,
		remaining: length,
		off:       off,
		block:     sha256.New(),
	}, nil
}

// NewVerifier builds a whole-stream verifier. The manifest's Digest
// must be the roll-up of its block digests (checked here, once, from
// 32 bytes per block); after that every block digest matching plus
// Close's length check is exactly "the stream hashes to Digest", so no
// second hash state runs over the payload.
func (m *Manifest) NewVerifier() (*RangeVerifier, error) {
	v, err := m.NewRangeVerifier(0, m.Size)
	if err != nil {
		return nil, err
	}
	if err := m.checkDigest(); err != nil {
		return nil, err
	}
	return v, nil
}

// Write consumes the next chunk, failing on the first surplus byte or
// mismatched block digest.
func (v *RangeVerifier) Write(p []byte) (int, error) {
	if int64(len(p)) > v.remaining {
		return 0, fmt.Errorf("ingest: stream for %q longer than expected: %d surplus bytes at offset %d",
			v.m.Dataset, int64(len(p))-v.remaining, v.off)
	}
	consumed := 0
	for len(p) > 0 {
		extent := v.m.blockExtent(v.idx)
		chunk := int64(len(p))
		if room := extent - v.inBlock; chunk > room {
			chunk = room
		}
		_, _ = v.block.Write(p[:chunk])
		v.inBlock += chunk
		v.off += chunk
		v.remaining -= chunk
		consumed += int(chunk)
		if v.inBlock == extent {
			if err := v.checkBlock(); err != nil {
				return consumed, err
			}
		}
		p = p[chunk:]
	}
	return consumed, nil
}

// checkBlock compares the completed block's digest to the manifest.
func (v *RangeVerifier) checkBlock() error {
	var d [sha256.Size]byte
	v.block.Sum(d[:0])
	if d != v.m.Blocks[v.idx] {
		return fmt.Errorf("ingest: %q block %d: %w", v.m.Dataset, v.idx, ErrDigestMismatch)
	}
	v.block.Reset()
	v.idx++
	v.inBlock = 0
	return nil
}

// Close checks stream completeness: every expected byte arrived (the
// last block, short or not, was checked by the Write that completed it).
func (v *RangeVerifier) Close() error {
	if v.remaining != 0 {
		return fmt.Errorf("ingest: stream for %q truncated: %d bytes missing at offset %d",
			v.m.Dataset, v.remaining, v.off)
	}
	return nil
}
