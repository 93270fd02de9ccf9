package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// segTestManifest hashes n pseudorandom bytes at a small block size so
// segment rollups span several blocks without megabytes of test data.
func segTestManifest(t *testing.T, n int64, blockSize int64) *Manifest {
	t.Helper()
	h := NewHasher(blockSize)
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, n)
	rng.Read(buf)
	if _, err := h.Write(buf); err != nil {
		t.Fatal(err)
	}
	return h.Manifest("seg-ds", false)
}

func TestSegmentDigestRollup(t *testing.T) {
	const (
		blockSize = int64(1 << 10)
		segSize   = 4 * blockSize
		total     = 10*blockSize + 100 // 11 blocks, 3 segments (4+4+3 blocks)
	)
	m := segTestManifest(t, total, blockSize)
	if len(m.Blocks) != 11 {
		t.Fatalf("manifest has %d blocks, want 11", len(m.Blocks))
	}
	digests, err := m.SegmentDigests(segSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 3 {
		t.Fatalf("got %d segment digests, want 3", len(digests))
	}
	// Each segment digest is SHA-256 over exactly the covered block
	// digests — recompute by hand, including the short tail segment.
	for i, span := range [][2]int{{0, 4}, {4, 8}, {8, 11}} {
		h := sha256.New()
		for _, b := range m.Blocks[span[0]:span[1]] {
			h.Write(b[:])
		}
		var want [sha256.Size]byte
		h.Sum(want[:0])
		if digests[i] != want {
			t.Errorf("segment %d digest mismatch", i)
		}
		got, err := m.SegmentDigest(segSize, int64(i))
		if err != nil || got != want {
			t.Errorf("SegmentDigest(%d) = %x err=%v, want %x", i, got, err, want)
		}
		hexGot, err := m.SegmentDigestHex(segSize, int64(i))
		if err != nil || hexGot != hex.EncodeToString(want[:]) {
			t.Errorf("SegmentDigestHex(%d) = %q err=%v", i, hexGot, err)
		}
	}
	// One roll-up at two granularities: a segment covering the whole
	// dataset has the dataset's digest.
	if whole, err := m.SegmentDigest(16*blockSize, 0); err != nil || whole != m.Digest {
		t.Errorf("one-segment digest = %x err=%v, want dataset digest %x", whole, err, m.Digest)
	}
	// Two manifests over different content disagree per segment.
	other := segTestManifest(t, total, blockSize)
	other.Blocks[0][0] ^= 0xFF
	od, err := other.SegmentDigest(segSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if od == digests[0] {
		t.Error("segment digest unchanged after flipping a covered block digest")
	}
	if od2, _ := other.SegmentDigest(segSize, 1); od2 != digests[1] {
		t.Error("segment 1 digest changed by a block outside its span")
	}
}

func TestSegmentDigestErrors(t *testing.T) {
	m := segTestManifest(t, 8<<10, 1<<10)
	if _, err := m.SegmentBlocks(1500); err == nil {
		t.Error("unaligned segment size accepted")
	}
	if _, err := m.SegmentBlocks(0); err == nil {
		t.Error("zero segment size accepted")
	}
	if _, err := m.SegmentDigest(4<<10, -1); err == nil {
		t.Error("negative segment index accepted")
	}
	if _, err := m.SegmentDigest(4<<10, 2); err == nil {
		t.Error("out-of-range segment index accepted")
	}
	if _, err := m.SegmentDigests(3 << 10); err != nil {
		t.Errorf("3-block segments over 8 blocks should roll up (3+3+2): %v", err)
	}
}
