package ingest

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"scdn/internal/storage"
)

// Hasher computes a dataset's manifest in one streaming pass: it is an
// io.Writer that feeds every byte, in stream order, to the current
// block's SHA-256, closing out a block digest at each block boundary.
// Each byte is hashed once. The dataset digest is the roll-up of those
// block digests, computed when the manifest is finalized from 32 bytes
// per block, never from payload. Memory stays flat no matter how large
// the dataset is.
//
// Hasher is for streams that cannot be re-read by offset; an input
// that can — a file, a spilled upload, the deterministic generator —
// goes through HashAt, which hashes blocks on every core and yields the
// identical manifest. Hasher stays the sequential reference the tests
// compare HashAt against.
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

// blockBufPool holds the DefaultBlockSize read buffers of HashAt's
// workers, so hashing a small upload on a busy edge allocates no
// payload-sized scratch per call.
var blockBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, DefaultBlockSize)
		return &b
	},
}

// HashAt computes the manifest of src's bytes [0, size) at
// DefaultBlockSize, hashing blocks in parallel. The manifest is
// identical to the one Hasher builds from the same bytes. A ReadAt that
// fails, or returns fewer bytes than a block needs, fails the hash: a
// source shorter than size is reported as io.ErrUnexpectedEOF.
func HashAt(src io.ReaderAt, size int64, id storage.DatasetID, opaque bool) (*Manifest, error) {
	return hashAt(src, size, DefaultBlockSize, id, opaque)
}

// hashAt is HashAt at any block size. Blocks are independent — the
// roll-up needs only their digests, in order — so up to GOMAXPROCS
// workers, the caller among them, claim block indexes from one atomic
// counter, each ReadAt-ing its block into its own buffer and writing
// its digest into that block's slot. A one-block input hashes on the
// caller with no goroutine. After the first failure workers stop
// claiming blocks; every worker has returned before hashAt does.
func hashAt(src io.ReaderAt, size, blockSize int64, id storage.DatasetID, opaque bool) (*Manifest, error) {
	if size < 0 {
		return nil, fmt.Errorf("ingest: hash %q: negative size %d", id, size)
	}
	count := BlockCount(size, blockSize)
	var blocks [][sha256.Size]byte
	if count > 0 {
		blocks = make([][sha256.Size]byte, count)
	}
	var next atomic.Int64
	var failed atomic.Bool
	work := func() error {
		bp := blockBufPool.Get().(*[]byte)
		defer blockBufPool.Put(bp)
		if int64(len(*bp)) < blockSize {
			*bp = make([]byte, blockSize)
		}
		for !failed.Load() {
			i := next.Add(1) - 1
			if i >= count {
				return nil
			}
			off := i * blockSize
			buf := (*bp)[:min(blockSize, size-off)]
			if n, err := src.ReadAt(buf, off); n < len(buf) {
				if err == nil || err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				failed.Store(true)
				return fmt.Errorf("ingest: hash %q: block %d at offset %d: %w", id, i, off, err)
			}
			blocks[i] = sha256.Sum256(buf)
		}
		return nil
	}

	workers := int(min(int64(runtime.GOMAXPROCS(0)), count))
	errs := make([]error, max(workers, 1))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = work()
		}(w)
	}
	errs[0] = work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Manifest{
		Dataset:   id,
		Size:      size,
		BlockSize: blockSize,
		Opaque:    opaque,
		Digest:    rollUp(blocks),
		Blocks:    blocks,
	}, nil
}
