// Package cdnclient is the live S-CDN client (Section V-A): Upload
// sends a dataset into the serving plane as content-addressed stripes
// (PUT /v1/datasets/{id}), and Download fetches one back as parallel
// range requests (stripe.go), the paper's GridFTP-style
// high-performance transfer. Download is the client's one fetch: its
// stripes align to the manifest's blocks, and each one verifies against
// the block digests as it streams into the destination; that is the one
// integrity record, for segmented datasets too. Bytes genuinely move,
// and every transfer verifies against the dataset's manifest, not
// against a regenerable pattern. The simulator's model of the client
// agent, in virtual time, lives in internal/core.
package cdnclient

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"scdn/internal/ingest"
	"scdn/internal/storage"
	"scdn/internal/transport"
)

// defaultTransferClient drives transfers over the delivery plane's
// shared tuned transport when the caller supplies no client.
var defaultTransferClient = transport.NewClient(30 * time.Second)

// TransferOptions parameterizes uploads and downloads.
type TransferOptions struct {
	// Client issues the HTTP requests. Nil means a package-default
	// client over the shared tuned transport.
	Client *http.Client
	// Endpoints are candidate base URLs. Downloads spread stripes across
	// them; uploads send every stripe to Endpoints[0] (origin-affinity:
	// the receiving edge becomes the dataset's origin, so one upload
	// must land on one node).
	Endpoints []string
	// Token is the bearer session token.
	Token string
	// Stripes is the parallel range count (values < 1 mean 1).
	Stripes int
}

func (o *TransferOptions) client() *http.Client {
	if o.Client != nil {
		return o.Client
	}
	return defaultTransferClient
}

// Upload publishes size bytes from src as dataset id, scoped to the
// collaboration group. It reads src once, block-parallel through
// ingest.HashAt, to compute the content manifest (per-block SHA-256 and
// their roll-up), then PUTs the bytes — as one body, or as Stripes
// parallel Content-Range sections for large datasets — declaring the
// digest up front so the receiving edge can reject any corruption with
// no partial state. The returned manifest is
// the server's accepted copy; Upload fails if it disagrees with the
// locally computed digest. A src holding fewer than size bytes fails
// the hash, with an error wrapping io.ErrUnexpectedEOF, before any
// request is sent.
func Upload(ctx context.Context, opts TransferOptions, id storage.DatasetID,
	group string, src io.ReaderAt, size int64) (*ingest.Manifest, error) {
	if len(opts.Endpoints) == 0 {
		return nil, fmt.Errorf("cdnclient: upload %q: no endpoints", id)
	}
	if size <= 0 {
		return nil, fmt.Errorf("cdnclient: upload %q: non-positive size %d", id, size)
	}
	// Pass one: hash the content. The manifest exists before any byte
	// leaves the machine, so a failed upload never half-publishes, and a
	// source shorter than size fails here, before any request.
	local, err := ingest.HashAt(src, size, id, true)
	if err != nil {
		return nil, fmt.Errorf("cdnclient: upload %q: %w", id, err)
	}

	plan := planStripesAligned(size, opts.Stripes, ingest.DefaultBlockSize)
	// bodies[i] is stripe i's 201 body: the server's manifest, sent by
	// the stripe that completed the upload.
	bodies := make([][]byte, len(plan))
	err = fanOut(ctx, plan, func(ctx context.Context, i int, p Range) (err error) {
		bodies[i], err = putStripe(ctx, opts, group, local, src, p)
		if err != nil {
			return fmt.Errorf("stripe %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cdnclient: upload %q: %w", id, err)
	}
	var accepted []byte
	for _, body := range bodies {
		if body != nil {
			accepted = body
		}
	}
	if accepted == nil {
		return nil, fmt.Errorf("cdnclient: upload %q: no stripe was acknowledged as final", id)
	}
	remote, err := ingest.DecodeManifest(accepted)
	if err != nil {
		return nil, fmt.Errorf("cdnclient: upload %q: server manifest: %w", id, err)
	}
	if remote.Digest != local.Digest || remote.Size != local.Size {
		return nil, fmt.Errorf("cdnclient: upload %q: server manifest disagrees with local digest", id)
	}
	return remote, nil
}

// putStripe PUTs one byte range of man's dataset to Endpoints[0]; a
// range covering the whole dataset goes as a plain body, any other with
// a Content-Range header. It returns the response body for 201 (the
// server's manifest, emitted by the stripe that completed the upload)
// and nil for 204 (stripe accepted, more outstanding).
func putStripe(ctx context.Context, opts TransferOptions, group string,
	man *ingest.Manifest, src io.ReaderAt, p Range) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		opts.Endpoints[0]+"/v1/datasets/"+url.PathEscape(string(man.Dataset)),
		io.NewSectionReader(src, p.Offset, p.Length))
	if err != nil {
		return nil, err
	}
	req.ContentLength = p.Length
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("Authorization", "Bearer "+opts.Token)
	req.Header.Set(ingest.DigestHeader, man.DigestHex())
	req.Header.Set(ingest.GroupHeader, group)
	if p.Length != man.Size {
		req.Header.Set("Content-Range",
			fmt.Sprintf("bytes %d-%d/%d", p.Offset, p.Offset+p.Length-1, man.Size))
	}
	resp, err := opts.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
		return io.ReadAll(io.LimitReader(resp.Body, drainLimit))
	case http.StatusNoContent:
		return nil, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, drainLimit))
		return nil, fmt.Errorf("status %s: %s", resp.Status, body)
	}
}

// discardAt swallows positioned writes (digest-reconciliation
// downloads that only care about verification).
type discardAt struct{}

func (discardAt) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }

// Discard is an io.WriterAt that drops everything written to it: pass
// it to Download to verify a dataset's replicas without keeping the
// bytes.
var Discard io.WriterAt = discardAt{}
