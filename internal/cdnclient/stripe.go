// Striped transfer: the client side of the paper's GridFTP-style
// high-performance transfer (Section V-A). A dataset is split into
// block-aligned byte ranges moved concurrently — a download spreads them
// over the replica holders, an upload sends them all to its origin —
// and each range is checked against the manifest's block digests as it
// streams, so memory stays flat no matter how large the dataset is.

package cdnclient

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"scdn/internal/ingest"
)

// Range is one planned byte range of a striped transfer.
type Range struct {
	Offset, Length int64
}

// StripeStat describes one completed (or failed) download stripe.
type StripeStat struct {
	Range
	Bytes    int64
	Endpoint string
	Err      error
}

// StripeResult summarizes a download.
type StripeResult struct {
	// Bytes is the total payload bytes received across stripes.
	Bytes int64
	// Stripes holds per-stripe accounting, ordered by offset.
	Stripes []StripeStat
}

// Download retrieves the manifest's dataset into dst as opts.Stripes
// concurrent range requests; stripe i targets Endpoints[i mod len], so
// Endpoints should list replica holders (from a resolve). Stripes are
// aligned to the manifest's blocks and every one is verified against
// the block digests as it streams into dst: the download fails on the
// first wrong status, corrupt, short or surplus byte, and a stripe from
// a corrupt or lying holder fails it before dst is trusted.
func Download(ctx context.Context, opts TransferOptions, man *ingest.Manifest,
	dst io.WriterAt) (StripeResult, error) {
	if len(opts.Endpoints) == 0 {
		return StripeResult{}, fmt.Errorf("cdnclient: download %q: no endpoints", man.Dataset)
	}
	plan := planStripesAligned(man.Size, opts.Stripes, man.BlockSize)
	res := StripeResult{Stripes: make([]StripeStat, len(plan))}
	err := fanOut(ctx, plan, func(ctx context.Context, i int, p Range) error {
		st := &res.Stripes[i]
		st.Range, st.Endpoint = p, opts.Endpoints[i%len(opts.Endpoints)]
		st.Bytes, st.Err = fetchStripe(ctx, opts, man, st.Endpoint, p, dst)
		if st.Err != nil {
			return fmt.Errorf("range %d-%d from %s: %w", p.Offset, p.Offset+p.Length-1, st.Endpoint, st.Err)
		}
		return nil
	})
	for _, st := range res.Stripes {
		res.Bytes += st.Bytes
	}
	if err != nil {
		return res, fmt.Errorf("cdnclient: download %q: %w", man.Dataset, err)
	}
	return res, nil
}

// fanOut runs fn for every range of plan concurrently and returns the
// first error any of them reports. That error cancels the context the
// others run under: the transfer has already failed.
func fanOut(ctx context.Context, plan []Range, fn func(ctx context.Context, i int, p Range) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	for i, p := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(ctx, i, p); err != nil {
				once.Do(func() { first = err; cancel() })
			}
		}()
	}
	wg.Wait()
	return first
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

// fetchStripe moves one download stripe from base into dst, verifying
// it against the manifest's block digests as it streams.
func fetchStripe(ctx context.Context, opts TransferOptions, man *ingest.Manifest,
	base string, p Range, dst io.WriterAt) (int64, error) {
	verifier, err := man.NewRangeVerifier(p.Offset, p.Length)
	if err != nil {
		return 0, fmt.Errorf("verifier: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/fetch/"+url.PathEscape(string(man.Dataset)), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+opts.Token)
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", p.Offset, p.Offset+p.Length-1))
	resp, err := opts.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		// Drain the unwanted body to EOF (bounded) before close so the
		// transport can return the connection to its idle pool instead of
		// tearing it down — error bodies here are small (JSON or a 416).
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
		return 0, fmt.Errorf("status %s, want 206", resp.Status)
	}
	wantCR := fmt.Sprintf("bytes %d-%d/%d", p.Offset, p.Offset+p.Length-1, man.Size)
	if cr := resp.Header.Get("Content-Range"); cr != wantCR {
		// Same reasoning as above: drain before bailing so the connection
		// survives for the retry this error will trigger.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
		return 0, fmt.Errorf("Content-Range %q, want %q", cr, wantCR)
	}
	n, err := io.Copy(io.MultiWriter(verifier, io.NewOffsetWriter(dst, p.Offset)), resp.Body)
	if err != nil {
		return n, err
	}
	return n, verifier.Close()
}
