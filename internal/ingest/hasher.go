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
// that can — a file, a spilled upload — goes through HashAt, which
// hashes blocks on every core, and a generated input that repeats one
// unit goes through HashRepeating, which hashes one block. Both yield
// the identical manifest; Hasher stays the sequential reference the
// tests compare them against.
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
// workers and HashRepeating's one block, so hashing a small upload on a
// busy edge allocates no payload-sized scratch per call.
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

// HashRepeating computes the manifest of the first size bytes of unit
// repeated without end — byte i is unit[i mod len(unit)] — at
// DefaultBlockSize. unit's length must divide DefaultBlockSize, so every
// full block starts at unit[0] and holds the same bytes: one full block
// and the short tail block are hashed, however large size is. The
// manifest is identical to HashAt's over the same bytes. HashRepeating
// is for generated input only; real input bytes go through HashAt.
func HashRepeating(unit []byte, size int64, id storage.DatasetID, opaque bool) (*Manifest, error) {
	if len(unit) == 0 || DefaultBlockSize%len(unit) != 0 {
		return nil, fmt.Errorf("ingest: hash %q: repeating unit of %d bytes does not divide the %d-byte block",
			id, len(unit), DefaultBlockSize)
	}
	if size < 0 {
		return nil, fmt.Errorf("ingest: hash %q: negative size %d", id, size)
	}
	count := BlockCount(size, DefaultBlockSize)
	var blocks [][sha256.Size]byte
	if count > 0 {
		bp := blockBufPool.Get().(*[]byte)
		defer blockBufPool.Put(bp)
		block := (*bp)[:min(size, DefaultBlockSize)]
		for n := 0; n < len(block); {
			n += copy(block[n:], unit)
		}
		blocks = make([][sha256.Size]byte, count)
		full := size / DefaultBlockSize
		if full > 0 {
			d := sha256.Sum256(block)
			for i := range full {
				blocks[i] = d
			}
		}
		if tail := size % DefaultBlockSize; tail > 0 {
			blocks[count-1] = sha256.Sum256(block[:tail])
		}
	}
	return &Manifest{
		Dataset:   id,
		Size:      size,
		BlockSize: DefaultBlockSize,
		Opaque:    opaque,
		Digest:    rollUp(blocks),
		Blocks:    blocks,
	}, nil
}

// hashAt is HashAt at any block size. Blocks are independent — the
// roll-up needs only their digests, in order — so they hash through
// parallel, each ReadAt into a pooled buffer and its digest written
// into its block's slot.
func hashAt(src io.ReaderAt, size, blockSize int64, id storage.DatasetID, opaque bool) (*Manifest, error) {
	if size < 0 {
		return nil, fmt.Errorf("ingest: hash %q: negative size %d", id, size)
	}
	count := BlockCount(size, blockSize)
	var blocks [][sha256.Size]byte
	if count > 0 {
		blocks = make([][sha256.Size]byte, count)
	}
	err := parallel(count, func(i int64) error {
		bp := blockBufPool.Get().(*[]byte)
		defer blockBufPool.Put(bp)
		if int64(len(*bp)) < blockSize {
			*bp = make([]byte, blockSize)
		}
		off := i * blockSize
		buf := (*bp)[:min(blockSize, size-off)]
		if n, err := src.ReadAt(buf, off); n < len(buf) {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("ingest: hash %q: block %d at offset %d: %w", id, i, off, err)
		}
		blocks[i] = sha256.Sum256(buf)
		return nil
	})
	if err != nil {
		return nil, err
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

// parallel calls fn(i) for every i in [0, n) on up to GOMAXPROCS
// workers, the caller among them, which claim indexes from one atomic
// counter; a single index runs on the caller with no goroutine. After
// the first failure workers stop claiming indexes, and every worker
// has returned before parallel does. Indexes are claimed in order, so
// every index below a failed one has run: the error returned is the
// lowest failing index's.
func parallel(n int64, fn func(i int64) error) error {
	var next atomic.Int64
	var failed atomic.Bool
	var mu sync.Mutex
	firstBad, firstErr := n, error(nil)
	work := func() {
		for !failed.Load() {
			i := next.Add(1) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				mu.Lock()
				if i < firstBad {
					firstBad, firstErr = i, err
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := int64(1); w < min(int64(runtime.GOMAXPROCS(0)), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}
