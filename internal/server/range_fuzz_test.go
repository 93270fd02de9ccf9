package server

import (
	"bytes"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// FuzzParseRange holds parseRanges to its contract under arbitrary Range
// headers: accepted range sets are in-bounds, non-empty, sorted,
// non-overlapping and non-adjacent (fully coalesced), the full-body
// result only ever comes from an absent header, and re-rendering an
// accepted set parses back to the same set (fixed point) — so a stripe
// plan echoed through HTTP can never drift. A single-part result
// rendered on its own parses back to that one range.
func FuzzParseRange(f *testing.F) {
	f.Add("", int64(4096))
	f.Add("bytes=0-99", int64(8192))
	f.Add("bytes=-256", int64(10000))
	f.Add("bytes=100-", int64(512))
	f.Add("bytes=5000-5000", int64(10000))
	f.Add("bytes=0-10,20-30", int64(4096))
	f.Add("bytes=20-30,0-10", int64(4096))
	f.Add("bytes=0-10,5-30", int64(4096))
	f.Add("bytes=0-10,11-30", int64(4096))
	f.Add("bytes=0-10, 20-30, -100", int64(4096))
	f.Add("bytes=0-,-1", int64(4096))
	f.Add("bytes=0-0,2-2,4-4,6-6,8-8,10-10,12-12,14-14,16-16", int64(64))
	f.Add("bytes=0-10,20-oops", int64(4096))
	f.Add("bytes=0-10,,20-30", int64(4096))
	f.Add("bytes=9-5", int64(4096))
	f.Add("bytes=-0", int64(4096))
	f.Fuzz(func(t *testing.T, h string, total int64) {
		if total < 0 {
			t.Skip("dataset sizes are non-negative by construction")
		}
		rngs, partial, err := parseRanges(nil, h, total)
		if err != nil {
			return // rejected headers carry no further obligations
		}
		if !partial {
			if h != "" {
				t.Fatalf("parseRanges(%q, %d) = full body for a present header", h, total)
			}
			if len(rngs) != 1 || rngs[0].off != 0 || rngs[0].n != total {
				t.Fatalf("parseRanges(%q, %d) full body = %+v", h, total, rngs)
			}
			return
		}
		if len(rngs) == 0 || len(rngs) > maxRangeParts {
			t.Fatalf("parseRanges(%q, %d) = %d parts", h, total, len(rngs))
		}
		for i, r := range rngs {
			if r.off < 0 || r.n < 1 {
				t.Fatalf("parseRanges(%q, %d)[%d] = {off %d, n %d}: empty or negative", h, total, i, r.off, r.n)
			}
			if r.off+r.n < r.off || r.off+r.n > total {
				t.Fatalf("parseRanges(%q, %d)[%d] = {off %d, n %d}: out of bounds (or overflow)", h, total, i, r.off, r.n)
			}
			if i > 0 && r.off <= rngs[i-1].end()+1 {
				t.Fatalf("parseRanges(%q, %d): parts %d,%d unsorted or uncoalesced: %+v", h, total, i-1, i, rngs)
			}
		}
		// Fixed point: rendering the set and reparsing returns it verbatim.
		rendered := rangesHeader(rngs)
		rngs2, partial2, err2 := parseRanges(nil, rendered, total)
		if err2 != nil || !partial2 || len(rngs2) != len(rngs) {
			t.Fatalf("parseRanges(%q, %d) = %+v, but reparsing its header %q gave (%+v, %v, %v)",
				h, total, rngs, rendered, rngs2, partial2, err2)
		}
		for i := range rngs {
			if rngs2[i] != rngs[i] {
				t.Fatalf("reparse drifted at part %d: %+v vs %+v", i, rngs[i], rngs2[i])
			}
		}
		// A single-part result, rendered on its own, reparses to itself
		// as one range.
		if len(rngs) == 1 {
			one := rangesHeader(rngs[:1])
			if r1, p1, err1 := parseRanges(nil, one, total); err1 != nil || !p1 || len(r1) != 1 || r1[0] != rngs[0] {
				t.Fatalf("parseRanges(%q, %d) = (%+v, %v, %v), want the single range %+v",
					one, total, r1, p1, err1, rngs[0])
			}
		}
	})
}

// FuzzMultipartFraming holds the hand-rendered multipart/byteranges
// framing to mime/multipart's reading of it. For every accepted
// 2–16-part range set over a small dataset, the served body parses
// into exactly those windows, each under its own Content-Range;
// Content-Length equals the bytes written; and a HEAD carries the same
// headers (its boundary aside) and no body.
func FuzzMultipartFraming(f *testing.F) {
	f.Add("bytes=0-0,2-2")
	f.Add("bytes=0-1023,2000-2999,-256")
	f.Add("bytes=4098-,0-0")
	f.Add("bytes=10-20,30-40,50-60,70-80,90-100,110-120,130-140,150-160,170-180,190-200,210-220,230-240,250-260,270-280,290-300,310-320")
	f.Add("bytes=100-,0-50")
	const total = int64(4099) // one byte past a payload block
	lc := startCluster(f, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1, DatasetBytes: total,
		Sweep: SweeperConfig{Disabled: true}})
	n, id := lc.Nodes[0], lc.DatasetIDs[0]
	auth := "Bearer " + string(login(f, lc))
	var whole bytes.Buffer
	if _, err := WritePayload(&whole, id, total); err != nil {
		f.Fatal(err)
	}
	ref := whole.Bytes()
	serve := func(method, h string) *http.Response {
		req := httptest.NewRequest(method, "/v1/fetch/"+string(id), nil)
		req.SetPathValue("dataset", string(id))
		req.Header.Set("Authorization", auth)
		req.Header.Set("Range", h)
		rec := httptest.NewRecorder()
		n.handleFetch(rec, req)
		return rec.Result()
	}
	f.Fuzz(func(t *testing.T, h string) {
		rngs, _, err := parseRanges(nil, h, total)
		if err != nil || len(rngs) < 2 {
			return // single windows and rejected sets carry no framing
		}
		get := serve(http.MethodGet, h)
		body, err := io.ReadAll(get.Body)
		if err != nil {
			t.Fatal(err)
		}
		if get.StatusCode != http.StatusPartialContent {
			t.Fatalf("%q: status %d", h, get.StatusCode)
		}
		if cl := get.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("%q: Content-Length %s, body %d bytes", h, cl, len(body))
		}
		mediaType, params, err := mime.ParseMediaType(get.Header.Get("Content-Type"))
		if err != nil || mediaType != "multipart/byteranges" || len(params["boundary"]) != boundaryLen {
			t.Fatalf("%q: Content-Type %q (%v)", h, get.Header.Get("Content-Type"), err)
		}
		mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
		for i, rng := range rngs {
			p, err := mr.NextPart()
			if err != nil {
				t.Fatalf("%q: part %d: %v", h, i, err)
			}
			if got, want := p.Header.Get("Content-Range"), rng.contentRange(total); got != want {
				t.Fatalf("%q: part %d Content-Range %q, want %q", h, i, got, want)
			}
			data, err := io.ReadAll(p)
			if err != nil {
				t.Fatalf("%q: part %d body: %v", h, i, err)
			}
			if !bytes.Equal(data, ref[rng.off:rng.off+rng.n]) {
				t.Fatalf("%q: part %d bytes diverge from window %d+%d", h, i, rng.off, rng.n)
			}
		}
		if p, err := mr.NextPart(); err != io.EOF {
			t.Fatalf("%q: %d parts expected, then %v (%v)", h, len(rngs), p, err)
		}

		head := serve(http.MethodHead, h)
		if b, _ := io.ReadAll(head.Body); len(b) != 0 {
			t.Fatalf("%q: HEAD wrote %d body bytes", h, len(b))
		}
		if head.StatusCode != get.StatusCode {
			t.Fatalf("%q: HEAD status %d, GET %d", h, head.StatusCode, get.StatusCode)
		}
		for k := range get.Header {
			hv, gv := head.Header.Get(k), get.Header.Get(k)
			if k == "Content-Type" {
				hv, gv = hv[:len(hv)-boundaryLen], gv[:len(gv)-boundaryLen]
			}
			if hv != gv {
				t.Fatalf("%q: HEAD %s %q, GET %q", h, k, hv, gv)
			}
		}
		if len(head.Header) != len(get.Header) {
			t.Fatalf("%q: HEAD headers %v, GET %v", h, head.Header, get.Header)
		}
	})
}
