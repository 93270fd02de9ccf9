package ingest

import (
	"crypto/sha256"
	"hash"

	"scdn/internal/storage"
)

// Hasher computes a dataset's manifest in one streaming pass: it is an
// io.Writer that feeds every byte to the current block's SHA-256 —
// exactly one hash state, so each byte is hashed once — closing out a
// block digest at each block boundary. The dataset digest is the
// roll-up of those block digests, computed when the manifest is
// finalized from 32 bytes per block, never from payload. Memory stays
// flat no matter how large the dataset is, so the upload path can hash
// exactly the bytes it spills to disk without buffering anything.
type Hasher struct {
	blockSize int64
	block     hash.Hash
	inBlock   int64
	blocks    [][sha256.Size]byte
	n         int64
}

// NewHasher creates a hasher with the given block granularity
// (non-positive means DefaultBlockSize).
func NewHasher(blockSize int64) *Hasher {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Hasher{
		blockSize: blockSize,
		block:     sha256.New(),
	}
}

// Write consumes the next chunk of the stream. It never fails.
func (h *Hasher) Write(p []byte) (int, error) {
	total := len(p)
	h.n += int64(total)
	for len(p) > 0 {
		room := h.blockSize - h.inBlock
		chunk := int64(len(p))
		if chunk > room {
			chunk = room
		}
		_, _ = h.block.Write(p[:chunk])
		h.inBlock += chunk
		if h.inBlock == h.blockSize {
			h.closeBlock()
		}
		p = p[chunk:]
	}
	return total, nil
}

// closeBlock finalizes the current block digest.
func (h *Hasher) closeBlock() {
	var d [sha256.Size]byte
	h.block.Sum(d[:0])
	h.blocks = append(h.blocks, d)
	h.block.Reset()
	h.inBlock = 0
}

// Bytes returns how many bytes have streamed through.
func (h *Hasher) Bytes() int64 { return h.n }

// Manifest finalizes the stream (closing a trailing short block) and
// returns the dataset's manifest, whose Digest is the roll-up of its
// block digests. The hasher must not be written to afterwards.
func (h *Hasher) Manifest(id storage.DatasetID, opaque bool) *Manifest {
	if h.inBlock > 0 {
		h.closeBlock()
	}
	return &Manifest{
		Dataset:   id,
		Size:      h.n,
		BlockSize: h.blockSize,
		Opaque:    opaque,
		Digest:    rollUp(h.blocks),
		Blocks:    h.blocks,
	}
}
