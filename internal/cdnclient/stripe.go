// Striped fetch: the client side of the paper's GridFTP-style
// high-performance transfer (Section V-A). A dataset is split into N
// byte ranges fetched concurrently — ideally from N different replica
// holders — and reassembled into one verified stream. Each stripe is an
// HTTP range request against the serving plane's GET /v1/fetch/{dataset},
// so any edge can serve any stripe (locally or via its own peer
// fallback), and verification runs in-stream through a caller-supplied
// per-range verifier (deterministic payload, manifest block digests,
// ...), so memory stays flat no matter how large the dataset is.

package cdnclient

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"scdn/internal/storage"
)

// StripeOptions parameterizes a striped fetch.
type StripeOptions struct {
	// Client issues the HTTP requests. Nil means a package-default client
	// over the delivery plane's shared tuned transport.
	Client *http.Client
	// Endpoints are candidate base URLs ("http://host:port"). Stripe i
	// targets Endpoints[i mod len] — pass replica holders first (e.g.
	// from ResolveResponse.Replicas) to realize holder-parallel transfer.
	Endpoints []string
	// Token is the bearer session token.
	Token string
	// Stripes is the parallel range count (values < 1 mean 1). Datasets
	// smaller than the stripe count use fewer, non-empty stripes.
	Stripes int
	// NewVerifier, when non-nil, supplies an in-stream verifier for each
	// planned range [off, off+length): the stripe's bytes pass through
	// the verifier's Write as they arrive, and Close must confirm
	// completeness — the fetch fails on the first corrupt, short, or
	// surplus byte. A factory error fails the stripe before any byte
	// moves.
	NewVerifier func(off, length int64) (io.WriteCloser, error)
	// Align, when > 1, makes every stripe boundary (except the dataset
	// end) a multiple of Align. Block-aligned ranges are what manifest
	// block-digest verifiers can check, so content-addressed transfers
	// set Align to the manifest block size.
	Align int64
	// Dst, when non-nil, receives the reassembled payload at the correct
	// offsets (stripes write concurrently, each to its own region).
	Dst io.WriterAt
}

// Range is one planned byte range of a striped transfer.
type Range struct {
	Offset, Length int64
}

// StripeStat describes one completed (or failed) stripe.
type StripeStat struct {
	Range
	Bytes    int64
	Endpoint string
	Source   string // serving edge, from X-SCDN-Source
	Elapsed  time.Duration
	Err      error
}

// StripeResult summarizes a striped fetch.
type StripeResult struct {
	// Bytes is the total payload bytes received across stripes.
	Bytes int64
	// Stripes holds per-stripe accounting, ordered by offset.
	Stripes []StripeStat
	// Elapsed is the wall-clock time of the whole fan-out.
	Elapsed time.Duration
}

// FetchStriped retrieves the dataset's total bytes as opts.Stripes
// concurrent range requests and returns per-stripe accounting. It fails
// if any stripe errors, returns a wrong status, or moves the wrong byte
// count — a short stripe can never masquerade as success.
func FetchStriped(ctx context.Context, opts StripeOptions, id storage.DatasetID, total int64) (StripeResult, error) {
	if opts.Client == nil {
		opts.Client = defaultTransferClient
	}
	if len(opts.Endpoints) == 0 {
		return StripeResult{}, fmt.Errorf("cdnclient: striped fetch: no endpoints")
	}
	if total <= 0 {
		return StripeResult{}, fmt.Errorf("cdnclient: striped fetch: non-positive dataset size %d", total)
	}
	plan := planStripesAligned(total, opts.Stripes, opts.Align)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now()
	stats := make([]StripeStat, len(plan))
	for i, p := range plan {
		stats[i] = StripeStat{Range: p}
	}
	var wg sync.WaitGroup
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &stats[i]
			st.Endpoint = opts.Endpoints[i%len(opts.Endpoints)]
			t0 := time.Now()
			st.Bytes, st.Source, st.Err = fetchOne(ctx, opts, id, st.Endpoint, st.Offset, st.Length, total)
			st.Elapsed = time.Since(t0)
			if st.Err != nil {
				cancel() // abort sibling stripes; the fetch already failed
			}
		}(i)
	}
	wg.Wait()

	res := StripeResult{Stripes: stats, Elapsed: time.Since(start)}
	var firstErr error
	for i := range stats {
		res.Bytes += stats[i].Bytes
		if stats[i].Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cdnclient: striped fetch: range %d-%d of %q from %s: %w",
				stats[i].Offset, stats[i].Offset+stats[i].Length-1, id,
				stats[i].Endpoint, stats[i].Err)
		}
	}
	if firstErr != nil {
		return res, firstErr
	}
	if res.Bytes != total {
		return res, fmt.Errorf("cdnclient: striped fetch: reassembled %d of %d bytes of %q", res.Bytes, total, id)
	}
	return res, nil
}

// maxStripes caps the fan-out no matter what the caller asks for: past
// a point more ranges only add request overhead, and an attacker-sized
// stripe count must not size an allocation.
const maxStripes = 1024

// planStripesAligned splits [0, total) into at most n contiguous
// non-empty ranges whose boundaries (except the dataset end) are
// multiples of align: each stripe covers whole align-sized blocks, so
// per-block digest verification lines up with stripe edges. It returns
// nil for non-positive totals, clamps n to [1, maxStripes], treats
// align < 1 as 1, and never plans more ranges than blocks. The chunk
// arithmetic is overflow-safe at total == math.MaxInt64, and the final
// (short) range is detected by remainder, not by advancing off past
// total — off + chunk can overflow int64 there, and a wrapped offset
// would loop forever.
func planStripesAligned(total int64, n int, align int64) []Range {
	if total <= 0 {
		return nil
	}
	n = min(max(n, 1), maxStripes)
	align = max(align, 1)
	blocks := total / align
	if total%align != 0 {
		blocks++
	}
	if int64(n) > blocks {
		n = int(blocks)
	}
	per := blocks / int64(n)
	if blocks%int64(n) != 0 {
		per++
	}
	chunk := total // fallback: one stripe, when per*align would overflow
	if per <= (int64(1)<<62)/align {
		chunk = per * align
	}
	plan := make([]Range, 0, n)
	for off := int64(0); ; off += chunk {
		if rem := total - off; rem <= chunk {
			return append(plan, Range{Offset: off, Length: rem})
		}
		plan = append(plan, Range{Offset: off, Length: chunk})
	}
}

// drainLimit bounds how many bytes of an unwanted response body are read
// before close; enough for any error payload the serving plane emits.
const drainLimit = 1 << 20

// fetchOne moves a single stripe, verifying and/or writing it as it
// streams.
func fetchOne(ctx context.Context, opts StripeOptions, id storage.DatasetID,
	base string, off, length, total int64) (int64, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/fetch/"+url.PathEscape(string(id)), nil)
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Authorization", "Bearer "+opts.Token)
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+length-1))
	resp, err := opts.Client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	src := resp.Header.Get("X-SCDN-Source")
	if resp.StatusCode != http.StatusPartialContent {
		// Drain the unwanted body to EOF (bounded) before close so the
		// transport can return the connection to its idle pool instead of
		// tearing it down — error bodies here are small (JSON or a 416).
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
		return 0, src, fmt.Errorf("status %s, want 206", resp.Status)
	}
	wantCR := fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, total)
	if cr := resp.Header.Get("Content-Range"); cr != wantCR {
		// Same reasoning as above: drain before bailing so the connection
		// survives for the retry this error will trigger.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
		return 0, src, fmt.Errorf("Content-Range %q, want %q", cr, wantCR)
	}

	var w io.Writer = io.Discard
	var verifier io.WriteCloser
	if opts.NewVerifier != nil {
		verifier, err = opts.NewVerifier(off, length)
		if err != nil {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
			return 0, src, fmt.Errorf("verifier: %w", err)
		}
		w = verifier
	}
	if opts.Dst != nil {
		w = io.MultiWriter(w, io.NewOffsetWriter(opts.Dst, off))
	}
	n, err := io.Copy(w, resp.Body)
	if err != nil {
		return n, src, err
	}
	if verifier != nil {
		if err := verifier.Close(); err != nil {
			return n, src, err
		}
	} else if n != length {
		return n, src, fmt.Errorf("read %d bytes, want %d", n, length)
	}
	return n, src, nil
}
