package server

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// byteRange is a resolved HTTP byte range: off is the first byte served,
// n the length in bytes.
type byteRange struct {
	off, n int64
}

// end returns the inclusive last-byte position (only valid for n > 0).
func (r byteRange) end() int64 { return r.off + r.n - 1 }

// contentRange renders the 206 Content-Range header value.
func (r byteRange) contentRange(total int64) string {
	return fmt.Sprintf("bytes %d-%d/%d", r.off, r.end(), total)
}

// rangesHeader renders the client-side Range header for a set of parts
// ("bytes=a-b,c-d"), the form forwarded to a peer on a proxied
// multipart fetch.
func rangesHeader(rngs []byteRange) string {
	var b strings.Builder
	b.WriteString("bytes=")
	for i, r := range rngs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(r.off, 10))
		b.WriteByte('-')
		b.WriteString(strconv.FormatInt(r.end(), 10))
	}
	return b.String()
}

// maxRangeParts caps how many parts one multipart Range request may ask
// for (counted before merging). Each part costs a seek plus MIME framing;
// an unbounded list would let one request turn a sendfile stream into
// thousands of tiny scattered reads. GridFTP-style striping needs a
// handful of parts, not hundreds; past the cap the request is rejected
// with 416 like any other unsatisfiable range.
const maxRangeParts = 16

// parseRanges interprets a Range request header against a body of total
// bytes, writing the parts into dst's storage (a caller's stack array of
// maxRangeParts keeps a warm fetch allocation-free). It returns
// (parts, true, nil) for a valid range set — sorted by offset, with
// overlapping and adjacent parts merged, so callers always see a
// minimal ascending sequence — ([full], false, nil) when no Range
// header is present, and an error when the header is malformed or any
// part is unsatisfiable. The delivery plane answers errors with 416
// rather than silently serving the full body, so a striped client can
// never mistake a whole payload for one stripe; that strictness is
// deliberately tighter than RFC 7233's "ignore invalid Range" latitude
// and covers every part of a multipart spec, not just the set as a
// whole. A multipart spec that merges down to one part is served as a
// plain single-range 206.
func parseRanges(dst []byteRange, h string, total int64) ([]byteRange, bool, error) {
	parts := dst[:0]
	if h == "" {
		return append(parts, byteRange{off: 0, n: total}), false, nil
	}
	const prefix = "bytes="
	if !strings.HasPrefix(h, prefix) {
		return nil, false, fmt.Errorf("server: unsupported range unit in %q", h)
	}
	rest := strings.TrimSpace(h[len(prefix):])
	for more := true; more; {
		if len(parts) == maxRangeParts {
			return nil, false, fmt.Errorf("server: %d range parts exceeds the %d-part cap",
				len(parts)+1+strings.Count(rest, ","), maxRangeParts)
		}
		var s string
		s, rest, more = strings.Cut(rest, ",")
		r, err := parseOneRange(strings.TrimSpace(s), total)
		if err != nil {
			return nil, false, err
		}
		parts = append(parts, r)
	}
	return coalesceRanges(parts), true, nil
}

// parseOneRange interprets one range-spec element ("a-b", "a-", "-k")
// against a body of total bytes, clamping the end to the body.
func parseOneRange(spec string, total int64) (byteRange, error) {
	dash := strings.Index(spec, "-")
	if dash < 0 {
		return byteRange{}, fmt.Errorf("server: malformed range part %q", spec)
	}
	first, last := strings.TrimSpace(spec[:dash]), strings.TrimSpace(spec[dash+1:])
	if first == "" {
		// Suffix form "-k": the final k bytes.
		k, err := strconv.ParseInt(last, 10, 64)
		if err != nil || k <= 0 {
			return byteRange{}, fmt.Errorf("server: malformed suffix range %q", spec)
		}
		if k > total {
			k = total
		}
		if k == 0 {
			return byteRange{}, fmt.Errorf("server: unsatisfiable range %q for %d bytes", spec, total)
		}
		return byteRange{off: total - k, n: k}, nil
	}
	off, err := strconv.ParseInt(first, 10, 64)
	if err != nil || off < 0 {
		return byteRange{}, fmt.Errorf("server: malformed range part %q", spec)
	}
	if off >= total {
		return byteRange{}, fmt.Errorf("server: unsatisfiable range %q for %d bytes", spec, total)
	}
	end := total - 1
	if last != "" {
		end, err = strconv.ParseInt(last, 10, 64)
		if err != nil || end < off {
			return byteRange{}, fmt.Errorf("server: malformed range part %q", spec)
		}
		if end > total-1 {
			end = total - 1
		}
	}
	return byteRange{off: off, n: end - off + 1}, nil
}

// coalesceRanges sorts parts by offset and merges overlapping or
// directly adjacent parts, so "0-10,5-20" and "0-10,11-20" both become
// one "0-20" part. Clients request parts for transfer scheduling, not
// semantics: merging preserves every requested byte while keeping the
// response's seek pattern monotone and minimal.
func coalesceRanges(parts []byteRange) []byteRange {
	if len(parts) <= 1 {
		return parts
	}
	slices.SortFunc(parts, func(a, b byteRange) int { return cmp.Compare(a.off, b.off) })
	out := parts[:1]
	for _, r := range parts[1:] {
		last := &out[len(out)-1]
		if r.off <= last.end()+1 {
			if r.end() > last.end() {
				last.n = r.end() - last.off + 1
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
