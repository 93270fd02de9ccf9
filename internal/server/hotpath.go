package server

import (
	"io"
	"mime/multipart"
	"net/http"
	"strconv"
	"sync"
)

// fetchScratch is the pooled per-request state of the fetch hot path.
// Everything a warm serve would otherwise allocate lives here: the
// one-element header-value arrays the response header map aliases, the
// memoized Content-Length / Content-Range strings (dataset sizes and
// stripe plans repeat, so the steady state re-renders nothing), and the
// LimitedReader the range path hands to the sendfile-riding io.Copy.
//
// Aliasing pooled arrays in a response header map is only safe when the
// headers are serialized before the scratch is recycled — which on the
// real serving path happens at the first body write. Callers therefore
// only take the scratch path when a body write is guaranteed (GET with
// at least one payload byte); HEAD and empty bodies use plain
// Header().Set, whose values net/http may read after the handler
// returns.
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

// useScratch reports whether the request may take the pooled-scratch
// serving path: a body write must be guaranteed (see fetchScratch) so
// the header values the map aliases are on the wire before the scratch
// is recycled.
func useScratch(r *http.Request, n int64) bool {
	return r.Method != http.MethodHead && n > 0
}

// countingWriter tallies bytes written and discards them; it sizes the
// multipart framing without buffering it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// multipartContentLength computes the exact Content-Length of a
// multipart/byteranges body with the given boundary by replaying the
// framing (boundaries + per-part headers) through a counting writer and
// adding the part payload sizes — the same technique net/http uses, so
// the response can carry a Content-Length without assembling the body
// in memory first.
func multipartContentLength(boundary string, rngs []byteRange, total int64) int64 {
	var cw countingWriter
	mw := multipart.NewWriter(&cw)
	if err := mw.SetBoundary(boundary); err != nil {
		return -1
	}
	for _, r := range rngs {
		if _, err := mw.CreatePart(r.mimeHeader(total)); err != nil {
			return -1
		}
		cw += countingWriter(r.n)
	}
	if err := mw.Close(); err != nil {
		return -1
	}
	return int64(cw)
}

// writeMultipart streams a multipart/byteranges response body: headers,
// then each part framed by mw with its bytes produced by copyPart
// directly into the response writer — no part is ever buffered whole.
// copyPart writes exactly rng.n bytes of the dataset window into w (a
// seek+copy from the volume, or a generator walk on the fallback).
// Returns the payload bytes served (excluding framing).
func writeMultipart(w http.ResponseWriter, r *http.Request, rngs []byteRange, total int64,
	copyPart func(io.Writer, byteRange) error) int64 {
	mw := multipart.NewWriter(w)
	h := w.Header()
	h["Content-Type"] = []string{"multipart/byteranges; boundary=" + mw.Boundary()}
	if cl := multipartContentLength(mw.Boundary(), rngs, total); cl >= 0 {
		h["Content-Length"] = []string{strconv.FormatInt(cl, 10)}
	}
	w.WriteHeader(http.StatusPartialContent)
	if r.Method == http.MethodHead {
		return 0
	}
	var served int64
	for _, rng := range rngs {
		pw, err := mw.CreatePart(rng.mimeHeader(total))
		if err != nil {
			return served // client gone mid-body: nothing to salvage
		}
		if err := copyPart(pw, rng); err != nil {
			return served
		}
		served += rng.n
	}
	_ = mw.Close()
	return served
}
