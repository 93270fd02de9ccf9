package server

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"scdn/internal/storage"
)

// copyBufPool holds the 64 KiB scratch buffers behind every userspace
// byte move in the delivery plane — payload materialization, peer
// proxy streaming, disk spills, and client-side verification — so the
// steady state performs no per-request buffer allocation.
var copyBufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 64<<10)
		return &b
	},
}

// copyBuffered copies src to dst through a pooled buffer. dst is wrapped
// so an io.ReaderFrom implementation cannot bypass the buffer and
// allocate its own (io.Copy's fallback inside net/http does exactly
// that, 32 KiB per call).
func copyBuffered(dst io.Writer, src io.Reader) (int64, error) {
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	return io.CopyBuffer(struct{ io.Writer }{dst}, src, *bp)
}

// The catalog tracks dataset *metadata* (sizes, holders); the serving
// plane still has to put real bytes on the wire. Payload
// bytes are derived deterministically from the dataset ID, so any edge
// holding a dataset serves the identical stream and clients can verify
// integrity without the cluster shipping content around out of band.

// payloadBlockSize is the repetition unit of a dataset's byte stream.
const payloadBlockSize = 4096

// payload is a dataset's deterministic byte stream as an io.ReaderAt:
// byte i is the repetition block's byte i mod payloadBlockSize, for
// every i ≥ 0. Every producer of generated bytes reads it by offset:
// the seeded manifests' block-parallel hash (ingest.HashAt) directly,
// and range writes, replica and segment materialization and the serve
// fallback through an io.SectionReader and copyBuffered, so they emit
// pooled 64 KiB writes — a syscall count that does not scale with
// payload size, and no buffer allocated per request.
type payload []byte

// errNegativeOffset is payload.ReadAt's one failure.
var errNegativeOffset = errors.New("server: negative payload offset")

// ReadAt fills b with the stream's bytes from off. The stream has no
// end, so it always fills b.
func (p payload) ReadAt(b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errNegativeOffset
	}
	pos := off % int64(len(p))
	n := 0
	for n < len(b) {
		n += copy(b[n:], p[pos:])
		pos = 0
	}
	return n, nil
}

// payloadBlock builds a dataset's payload by chaining SHA-256 over the
// dataset ID into its repetition block. The serving plane calls it only
// to seed a manifest, to materialize a replica or segment into the
// volume, or as the fallback when the volume cannot hold one — never on
// the warm serve path.
func payloadBlock(id storage.DatasetID) payload {
	block := make([]byte, 0, payloadBlockSize)
	sum := sha256.Sum256([]byte(id))
	for len(block) < payloadBlockSize {
		block = append(block, sum[:]...)
		sum = sha256.Sum256(sum[:])
	}
	return block[:payloadBlockSize]
}

// WritePayload streams a dataset's first n bytes to w and returns the
// bytes written.
func WritePayload(w io.Writer, id storage.DatasetID, n int64) (int64, error) {
	return WritePayloadRange(w, id, 0, n)
}

// WritePayloadRange streams the dataset's bytes [off, off+n) to w — the
// server side of an HTTP range request. An empty range (n == 0) writes
// nothing and succeeds.
func WritePayloadRange(w io.Writer, id storage.DatasetID, off, n int64) (int64, error) {
	if off < 0 {
		return 0, fmt.Errorf("server: negative payload offset %d", off)
	}
	if n < 0 {
		return 0, fmt.Errorf("server: negative payload size %d", n)
	}
	return copyBuffered(w, io.NewSectionReader(payloadBlock(id), off, n))
}

// RangeVerifier incrementally checks that a byte stream equals the
// dataset's deterministic payload over [off, off+n). It is an io.Writer,
// so verification runs in constant memory as the response body streams
// through it — no buffering of the payload.
type RangeVerifier struct {
	id    storage.DatasetID
	block []byte
	off   int64 // absolute offset of the next expected byte
	n     int64 // bytes still expected
}

// NewRangeVerifier builds a verifier for the dataset's bytes [off, off+n).
func NewRangeVerifier(id storage.DatasetID, off, n int64) *RangeVerifier {
	return &RangeVerifier{id: id, block: payloadBlock(id), off: off, n: n}
}

// Write consumes the next chunk of the stream, failing on the first
// mismatched or surplus byte.
func (v *RangeVerifier) Write(p []byte) (int, error) {
	if int64(len(p)) > v.n {
		return 0, fmt.Errorf("server: payload for %q longer than expected: %d surplus bytes at offset %d",
			v.id, int64(len(p))-v.n, v.off)
	}
	for i, b := range p {
		if b != v.block[(v.off+int64(i))%int64(len(v.block))] {
			return i, fmt.Errorf("server: payload for %q corrupt at offset %d", v.id, v.off+int64(i))
		}
	}
	v.off += int64(len(p))
	v.n -= int64(len(p))
	return len(p), nil
}

// Close checks stream completeness: every expected byte arrived.
func (v *RangeVerifier) Close() error {
	if v.n != 0 {
		return fmt.Errorf("server: payload for %q truncated: %d bytes missing at offset %d", v.id, v.n, v.off)
	}
	return nil
}

// VerifyPayload consumes r and checks that it carries exactly the
// dataset's deterministic stream of length n. It returns the bytes read
// and the first mismatch found. Verification streams: memory stays flat
// regardless of n.
func VerifyPayload(r io.Reader, id storage.DatasetID, n int64) (int64, error) {
	return VerifyPayloadRange(r, id, 0, n)
}

// VerifyPayloadRange consumes r and checks it carries exactly the
// dataset's bytes [off, off+n).
func VerifyPayloadRange(r io.Reader, id storage.DatasetID, off, n int64) (int64, error) {
	v := NewRangeVerifier(id, off, n)
	read, err := copyBuffered(v, r)
	if err != nil {
		return read, err
	}
	return read, v.Close()
}
