package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strconv"
	"time"

	"scdn/internal/server"
	"scdn/internal/storage"
)

// blockSize is the repetition unit of every payload the benchmark
// checks: byte p of a seeded dataset is block[p%blockSize], with block
// the first blockSize bytes server.WritePayload produces.
const blockSize = 4096

// readBufSize is the per-client body read buffer.
const readBufSize = 64 << 10

// pattern is one dataset's expected byte stream. It holds the
// repetition block twice over, so the next blockSize bytes from any
// phase are one contiguous slice: checking a read is a memcmp per block,
// at a fraction of the cost of a per-byte or hashing verifier.
type pattern struct {
	rep []byte
}

func newPattern(block []byte) *pattern {
	return &pattern{rep: append(append(make([]byte, 0, 2*blockSize), block...), block...)}
}

// payloadPattern returns the pattern of a dataset the cluster generates
// (seeded datasets) or of an upload source the benchmark derives the
// same way from the upload's ID.
func payloadPattern(id storage.DatasetID) *pattern {
	var b bytes.Buffer
	if _, err := server.WritePayload(&b, id, blockSize); err != nil {
		panic(err) // WritePayload fails only on negative sizes
	}
	return newPattern(b.Bytes())
}

// match reports whether p equals the stream at offset off.
func (pt *pattern) match(p []byte, off int64) bool {
	for len(p) > 0 {
		phase := int(off % blockSize)
		k := min(len(p), blockSize)
		if !bytes.Equal(p[:k], pt.rep[phase:phase+k]) {
			return false
		}
		p, off = p[k:], off+int64(k)
	}
	return true
}

// ReadAt serves the pattern as an upload source of unbounded length.
func (pt *pattern) ReadAt(p []byte, off int64) (int, error) {
	n := 0
	for n < len(p) {
		phase := int((off + int64(n)) % blockSize)
		n += copy(p[n:], pt.rep[phase:phase+min(len(p)-n, blockSize)])
	}
	return n, nil
}

var (
	errMismatch = errors.New("body differs from the dataset's bytes")
	errShort    = errors.New("body shorter than expected")
	errLong     = errors.New("body longer than expected")
)

// bodyReader reads response bodies and checks every byte. verify
// accumulates the time spent comparing, which the traced run reports as
// the benchmark's own overhead.
type bodyReader struct {
	buf    []byte
	verify time.Duration
	timed  bool
}

func newBodyReader() *bodyReader { return &bodyReader{buf: make([]byte, readBufSize)} }

// read consumes want bytes from r, checking them against pt from
// offset off, and then requires EOF. It returns the verified bytes.
func (br *bodyReader) read(r io.Reader, pt *pattern, off, want int64) (int64, error) {
	var got int64
	for {
		n, err := r.Read(br.buf)
		if n > 0 {
			if got+int64(n) > want {
				return got, errLong
			}
			var t0 time.Time
			if br.timed {
				t0 = time.Now()
			}
			ok := pt.match(br.buf[:n], off+got)
			if br.timed {
				br.verify += time.Since(t0)
			}
			if !ok {
				return got, errMismatch
			}
			got += int64(n)
		}
		if err == io.EOF {
			if got != want {
				return got, errShort
			}
			return got, nil
		}
		if err != nil {
			return got, err
		}
	}
}

// checkPlain verifies a non-multipart response carrying [off, off+n) of
// a total-byte dataset: status, Content-Length, Content-Range (for 206)
// and every body byte.
func (br *bodyReader) checkPlain(resp *http.Response, pt *pattern, off, n, total int64, partial bool) (int64, error) {
	wantStatus := http.StatusOK
	if partial {
		wantStatus = http.StatusPartialContent
		if cr, want := resp.Header.Get("Content-Range"), contentRange(off, n, total); cr != want {
			return 0, fmt.Errorf("Content-Range %q, want %q", cr, want)
		}
	}
	if resp.StatusCode != wantStatus {
		return 0, fmt.Errorf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	if resp.ContentLength != n {
		return 0, fmt.Errorf("Content-Length %d, want %d", resp.ContentLength, n)
	}
	return br.read(resp.Body, pt, off, n)
}

// checkMultipart verifies a multipart/byteranges response: the framing,
// one part per requested range in order, each part's Content-Range and
// bytes, and a Content-Length equal to the bytes on the wire.
func (br *bodyReader) checkMultipart(resp *http.Response, pt *pattern, parts []span, total int64) (int64, error) {
	if resp.StatusCode != http.StatusPartialContent {
		return 0, fmt.Errorf("status %d, want 206", resp.StatusCode)
	}
	mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || mt != "multipart/byteranges" || params["boundary"] == "" {
		return 0, fmt.Errorf("Content-Type %q is not multipart/byteranges", resp.Header.Get("Content-Type"))
	}
	wire := &countingReader{r: resp.Body}
	mr := multipart.NewReader(wire, params["boundary"])
	var got int64
	for i, p := range parts {
		part, err := mr.NextPart()
		if err != nil {
			return got, fmt.Errorf("part %d: %w", i, err)
		}
		if cr, want := part.Header.Get("Content-Range"), contentRange(p.off, p.n, total); cr != want {
			return got, fmt.Errorf("part %d Content-Range %q, want %q", i, cr, want)
		}
		n, err := br.read(part, pt, p.off, p.n)
		got += n
		if err != nil {
			return got, fmt.Errorf("part %d: %w", i, err)
		}
	}
	if _, err := mr.NextPart(); err != io.EOF {
		return got, fmt.Errorf("more than %d parts", len(parts))
	}
	if _, err := io.Copy(io.Discard, wire); err != nil {
		return got, err
	}
	if wire.n != resp.ContentLength {
		return got, fmt.Errorf("Content-Length %d, %d bytes on the wire", resp.ContentLength, wire.n)
	}
	return got, nil
}

func contentRange(off, n, total int64) string {
	return "bytes " + strconv.FormatInt(off, 10) + "-" + strconv.FormatInt(off+n-1, 10) +
		"/" + strconv.FormatInt(total, 10)
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
