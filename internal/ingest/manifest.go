// Package ingest is the S-CDN's content addressing layer: the manifests,
// digests, and verifiers behind live user uploads. The paper's storage
// model (Section V-A) gives every member repository a user partition for
// researcher-contributed data; until datasets actually enter through it,
// every byte in the system is re-derivable from the deterministic
// generator and "replication" never has to move data. An ingested
// dataset is opaque — nobody can regenerate it — so the system must
// carry a verifiable description of its content instead: the manifest.
//
// A manifest content-addresses one dataset: its total size, the SHA-256
// of each fixed-size block, and the dataset digest — the SHA-256 of the
// concatenated block digests, the same roll-up a segment digest is at
// segment granularity. The block digests make *ranges* verifiable,
// which is what lets repair re-replication fetch stripes from several
// surviving holders in parallel (GridFTP-style) and still reject a
// corrupt peer per stripe; the roll-up makes an upload or full-body
// transfer verifiable end to end while every payload byte is hashed
// exactly once.
package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"scdn/internal/storage"
)

// DefaultBlockSize is the manifest block granularity: 64 KiB matches the
// delivery plane's pooled copy buffers, so hashing adds no extra
// userspace copies, and it keeps block-digest lists small (16 per MiB).
const DefaultBlockSize = 64 << 10

// HTTP headers of the upload wire protocol (PUT /v1/datasets/{id}).
const (
	// DigestHeader declares the dataset digest (lowercase hex: SHA-256
	// of the concatenated DefaultBlockSize block digests) the uploaded
	// bytes must hash to; the edge rejects the upload otherwise.
	DigestHeader = "X-SCDN-Digest"
	// GroupHeader names the collaboration group a new dataset is scoped
	// to; required on the first stripe of a new dataset.
	GroupHeader = "X-SCDN-Group"
)

// Limits enforced by DecodeManifest so a hostile manifest can neither
// size an absurd allocation nor describe an impossible dataset.
const (
	maxManifestDataset = 1024     // bytes of dataset ID
	maxManifestBlocks  = 1 << 20  // block-digest count
	maxBlockSize       = 1 << 30  // 1 GiB
	maxManifestBytes   = 64 << 20 // encoded form, decode input cap
)

// Manifest content-addresses one dataset.
type Manifest struct {
	// Dataset is the dataset the manifest describes.
	Dataset storage.DatasetID
	// Size is the dataset's exact byte length.
	Size int64
	// BlockSize is the block granularity of Blocks.
	BlockSize int64
	// Opaque marks a dataset whose bytes exist nowhere but in replicas:
	// it cannot be regenerated, so losing every copy loses the data and
	// repair must move real bytes.
	Opaque bool
	// Digest is the dataset digest: the SHA-256 of the concatenated
	// Blocks (see rollUp). A manifest whose Digest is anything else is
	// rejected wherever one enters (DecodeManifest, Store.Put).
	Digest [sha256.Size]byte
	// Blocks holds the SHA-256 of each BlockSize-sized block; the last
	// block may be short. len(Blocks) == ceil(Size/BlockSize).
	Blocks [][sha256.Size]byte
}

// BlockCount returns how many blocks a size/blockSize pair implies.
func BlockCount(size, blockSize int64) int64 {
	if size <= 0 || blockSize <= 0 {
		return 0
	}
	n := size / blockSize
	if size%blockSize != 0 {
		n++
	}
	return n
}

// DigestHex returns the dataset digest as lowercase hex.
func (m *Manifest) DigestHex() string { return hex.EncodeToString(m.Digest[:]) }

// rollUp is the one content-address roll-up: the SHA-256 of the
// concatenated block digests. Over all of a manifest's blocks it is the
// dataset digest; over one segment's blocks, the segment digest — so a
// one-segment dataset's digest equals its segment digest. It hashes 32
// bytes per block, never payload bytes.
func rollUp(blocks [][sha256.Size]byte) (d [sha256.Size]byte) {
	h := sha256.New()
	for i := range blocks {
		_, _ = h.Write(blocks[i][:])
	}
	h.Sum(d[:0])
	return d
}

// checkDigest fails with ErrDigestMismatch unless Digest is the roll-up
// of Blocks.
func (m *Manifest) checkDigest() error {
	if rollUp(m.Blocks) != m.Digest {
		return fmt.Errorf("ingest: %q digest is not the roll-up of its block digests: %w",
			m.Dataset, ErrDigestMismatch)
	}
	return nil
}

// blockExtent returns the byte length of block i (the last block may be
// short).
func (m *Manifest) blockExtent(i int64) int64 {
	if off := i * m.BlockSize; off+m.BlockSize > m.Size {
		return m.Size - off
	}
	return m.BlockSize
}

// Validate checks the manifest's internal consistency.
func (m *Manifest) Validate() error {
	if m.Dataset == "" || len(m.Dataset) > maxManifestDataset {
		return fmt.Errorf("ingest: bad dataset ID (%d bytes)", len(m.Dataset))
	}
	if m.Size <= 0 {
		return fmt.Errorf("ingest: non-positive size %d", m.Size)
	}
	if m.BlockSize <= 0 || m.BlockSize > maxBlockSize {
		return fmt.Errorf("ingest: block size %d outside (0, %d]", m.BlockSize, int64(maxBlockSize))
	}
	want := BlockCount(m.Size, m.BlockSize)
	if want > maxManifestBlocks {
		return fmt.Errorf("ingest: %d blocks exceeds cap %d", want, int64(maxManifestBlocks))
	}
	if int64(len(m.Blocks)) != want {
		return fmt.Errorf("ingest: %d block digests for %d bytes of %d-byte blocks (want %d)",
			len(m.Blocks), m.Size, m.BlockSize, want)
	}
	return nil
}

// wireManifest is the JSON encoding: digests travel as lowercase hex.
type wireManifest struct {
	Dataset   string   `json:"dataset"`
	Size      int64    `json:"size"`
	BlockSize int64    `json:"block_size"`
	Opaque    bool     `json:"opaque"`
	Digest    string   `json:"sha256"`
	Blocks    []string `json:"blocks"`
}

// EncodeManifest serializes a manifest to its canonical JSON wire form.
func EncodeManifest(m *Manifest) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	wm := wireManifest{
		Dataset:   string(m.Dataset),
		Size:      m.Size,
		BlockSize: m.BlockSize,
		Opaque:    m.Opaque,
		Digest:    m.DigestHex(),
		Blocks:    make([]string, len(m.Blocks)),
	}
	for i := range m.Blocks {
		wm.Blocks[i] = hex.EncodeToString(m.Blocks[i][:])
	}
	return json.Marshal(wm)
}

// ParseDigest decodes a lowercase-hex SHA-256 (the wire form of digests
// in manifests and the DigestHeader). Uppercase hex is rejected so
// every digest has exactly one encoded form (round-trip stability).
func ParseDigest(s string) (d [sha256.Size]byte, err error) {
	if len(s) != hex.EncodedLen(sha256.Size) {
		return d, fmt.Errorf("ingest: digest %q: want %d hex chars", s, hex.EncodedLen(sha256.Size))
	}
	if s != string(bytes.ToLower([]byte(s))) {
		return d, fmt.Errorf("ingest: digest %q: want lowercase hex", s)
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return d, fmt.Errorf("ingest: digest %q: %w", s, err)
	}
	copy(d[:], b)
	return d, nil
}

// DecodeManifest parses and validates a wire-form manifest. Hostile
// inputs — oversized fields, inconsistent size/block counts, malformed
// digests, a dataset digest that is not the roll-up of the block
// digests, trailing garbage — are rejected; a decoded manifest always
// re-encodes to an identical byte string.
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) > maxManifestBytes {
		return nil, fmt.Errorf("ingest: manifest %d bytes exceeds cap %d", len(data), int64(maxManifestBytes))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var wm wireManifest
	if err := dec.Decode(&wm); err != nil {
		return nil, fmt.Errorf("ingest: bad manifest: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("ingest: trailing data after manifest")
	}
	m := &Manifest{
		Dataset:   storage.DatasetID(wm.Dataset),
		Size:      wm.Size,
		BlockSize: wm.BlockSize,
		Opaque:    wm.Opaque,
	}
	var err error
	if m.Digest, err = ParseDigest(wm.Digest); err != nil {
		return nil, err
	}
	if int64(len(wm.Blocks)) > maxManifestBlocks {
		return nil, fmt.Errorf("ingest: %d block digests exceeds cap %d", len(wm.Blocks), int64(maxManifestBlocks))
	}
	m.Blocks = make([][sha256.Size]byte, len(wm.Blocks))
	for i, s := range wm.Blocks {
		if m.Blocks[i], err = ParseDigest(s); err != nil {
			return nil, err
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := m.checkDigest(); err != nil {
		return nil, err
	}
	return m, nil
}
