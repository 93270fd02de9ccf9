package server

import (
	"crypto/rand"
	"encoding/hex"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// fetchScratch is the pooled per-request state of the fetch hot path.
// Everything a warm serve would otherwise allocate lives here: the
// one-element header-value arrays the response header map aliases, the
// memoized Content-Length / Content-Range strings (dataset sizes and
// stripe plans repeat, so the steady state re-renders nothing), the
// LimitedReader the range path hands to the sendfile-riding io.Copy,
// and the partWriter a multipart body streams through.
//
// Aliasing pooled arrays in a response header map is only safe when the
// headers are serialized before the scratch is recycled — which on the
// real serving path happens at the first body write. Callers therefore
// return the scratch to the pool only when a body write is guaranteed
// (GET with at least one payload byte); a HEAD or empty body leaves its
// scratch to the GC, since net/http may read the header values after
// the handler returns.
type fetchScratch struct {
	num [24]byte // strconv scratch

	clVal int64 // memo key for clStr; -1 = empty
	clStr string
	cl    [1]string

	crRng   byteRange // memo key for crStr
	crTotal int64     // -1 = empty
	crStr   string
	cr      [1]string

	lr io.LimitedReader
	pw partWriter
}

var fetchScratchPool = sync.Pool{
	New: func() interface{} {
		return &fetchScratch{clVal: -1, crTotal: -1}
	},
}

// contentLength returns the scratch's one-element header value holding
// the decimal rendering of v, re-rendering only when v changed since the
// last request this scratch served.
func (sc *fetchScratch) contentLength(v int64) []string {
	if sc.clVal != v {
		sc.clVal = v
		sc.clStr = string(strconv.AppendInt(sc.num[:0], v, 10))
	}
	sc.cl[0] = sc.clStr
	return sc.cl[:]
}

// contentRange is the Content-Range analogue of contentLength.
func (sc *fetchScratch) contentRange(r byteRange, total int64) []string {
	if sc.crRng != r || sc.crTotal != total {
		sc.crRng, sc.crTotal = r, total
		sc.crStr = r.contentRange(total)
	}
	sc.cr[0] = sc.crStr
	return sc.cr[:]
}

// A multipart/byteranges body is framed here by hand, byte for byte as
// mime/multipart frames it: each part opens with its boundary delimiter
// ("--" boundary, preceded by a CRLF after the first part), then its
// Content-Range and Content-Type lines in sorted-key order and a blank
// line; the body ends with the close delimiter "\r\n--" boundary "--\r\n".
// Rendering the framing directly lets Content-Length come from
// arithmetic and the whole body go out through one pooled buffer.
const (
	multipartTypePrefix = "multipart/byteranges; boundary="
	// boundaryLen is the length of a boundary: 30 random bytes in hex,
	// drawn the way mime/multipart draws its own.
	boundaryLen = 60
	// partHeaderFixed is every byte of a part's opening framing except
	// the boundary, the leading CRLF of later parts, and the three
	// numbers of its Content-Range.
	partHeaderFixed = len("--\r\nContent-Range: bytes -/\r\nContent-Type: application/octet-stream\r\n\r\n")
	// closeDelimLen is the length of the close delimiter.
	closeDelimLen = len("\r\n----\r\n") + boundaryLen
)

// newMultipartType returns a fresh multipart/byteranges Content-Type
// value and the random boundary it names (a substring of it, so both
// cost one allocation).
func newMultipartType() (contentType, boundary string) {
	var raw [boundaryLen / 2]byte
	// crypto/rand.Read never returns an error: it crashes the program
	// when the system's randomness source fails.
	_, _ = rand.Read(raw[:])
	b := make([]byte, 0, len(multipartTypePrefix)+boundaryLen)
	b = hex.AppendEncode(append(b, multipartTypePrefix...), raw[:])
	contentType = string(b)
	return contentType, contentType[len(multipartTypePrefix):]
}

// appendPartHeader appends the framing that opens one part.
func appendPartHeader(b []byte, boundary string, first bool, rng byteRange, total int64) []byte {
	if !first {
		b = append(b, "\r\n"...)
	}
	b = append(b, "--"...)
	b = append(b, boundary...)
	b = append(b, "\r\nContent-Range: bytes "...)
	b = strconv.AppendInt(b, rng.off, 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, rng.end(), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, total, 10)
	return append(b, "\r\nContent-Type: application/octet-stream\r\n\r\n"...)
}

// appendCloseDelimiter appends the framing that ends the body.
func appendCloseDelimiter(b []byte, boundary string) []byte {
	b = append(b, "\r\n--"...)
	b = append(b, boundary...)
	return append(b, "--\r\n"...)
}

// multipartLength is the exact Content-Length of a multipart/byteranges
// body over rngs: the framing appendPartHeader and appendCloseDelimiter
// render, plus the part bytes.
func multipartLength(rngs []byteRange, total int64) int64 {
	cl := int64(closeDelimLen) + 2*int64(len(rngs)-1)
	for _, r := range rngs {
		cl += int64(partHeaderFixed+boundaryLen+decimalLen(r.off)+decimalLen(r.end())+decimalLen(total)) + r.n
	}
	return cl
}

// decimalLen is the number of digits of a non-negative v.
func decimalLen(v int64) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

// partWriter is the one buffered writer a multipart body streams
// through: framing is copied into the pooled buffer, file parts are
// read straight into its free space (io.Copy of a part's LimitedReader
// lands in ReadFrom), and only a full buffer or the end of the body
// reaches dst, as one Write. The first write error sticks.
type partWriter struct {
	dst io.Writer
	buf []byte // pending bytes; cap is the pooled buffer's size
	err error
}

// flush writes the pending bytes to dst.
func (pw *partWriter) flush() error {
	if pw.err == nil && len(pw.buf) > 0 {
		_, pw.err = pw.dst.Write(pw.buf)
	}
	pw.buf = pw.buf[:0]
	return pw.err
}

func (pw *partWriter) Write(p []byte) (int, error) {
	var n int
	for len(p) > 0 {
		if len(pw.buf) == cap(pw.buf) && pw.flush() != nil {
			return n, pw.err
		}
		c := copy(pw.buf[len(pw.buf):cap(pw.buf)], p)
		pw.buf = pw.buf[:len(pw.buf)+c]
		n += c
		p = p[c:]
	}
	return n, pw.err
}

func (pw *partWriter) ReadFrom(src io.Reader) (int64, error) {
	var n int64
	for {
		if len(pw.buf) == cap(pw.buf) && pw.flush() != nil {
			return n, pw.err
		}
		m, err := src.Read(pw.buf[len(pw.buf):cap(pw.buf)])
		pw.buf = pw.buf[:len(pw.buf)+m]
		n += int64(m)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// writeMultipart writes a multipart/byteranges response over rngs of
// src: headers, then each part's framing and bytes through one pooled
// 64 KiB partWriter — no part is ever held whole, and a body that fits
// the buffer reaches the connection in one write. Returns the part
// bytes served (framing excluded).
func (n *Node) writeMultipart(w http.ResponseWriter, r *http.Request, src *fetchSource,
	rngs []byteRange, total int64) int64 {
	contentType, boundary := newMultipartType()
	h := w.Header()
	h["Content-Type"] = []string{contentType}
	h["Content-Length"] = []string{strconv.FormatInt(multipartLength(rngs, total), 10)}
	w.WriteHeader(http.StatusPartialContent)
	if r.Method == http.MethodHead {
		return 0
	}
	sc := fetchScratchPool.Get().(*fetchScratch)
	defer fetchScratchPool.Put(sc)
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	sc.pw = partWriter{dst: w, buf: (*bp)[:0]}
	defer func() { sc.pw = partWriter{} }() // pool neither w nor the buffer
	var frame [256]byte
	var served int64
	for i, rng := range rngs {
		if _, err := sc.pw.Write(appendPartHeader(frame[:0], boundary, i == 0, rng, total)); err != nil {
			return served // client gone mid-body: nothing to salvage
		}
		m, err := n.copyRange(&sc.pw, sc, src, rng.off, rng.n)
		served += m
		if err != nil {
			return served
		}
	}
	_, _ = sc.pw.Write(appendCloseDelimiter(frame[:0], boundary))
	_ = sc.pw.flush()
	return served
}
