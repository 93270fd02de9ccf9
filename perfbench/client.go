package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"time"

	"scdn/internal/server"
	"scdn/internal/storage"
)

// reqCounts are the requests a client issued, by the edge counter that
// must see them.
type reqCounts struct {
	fetch, seg, peer, resolve, upload uint64
}

func (a *reqCounts) add(b reqCounts) {
	a.fetch += b.fetch
	a.seg += b.seg
	a.peer += b.peer
	a.resolve += b.resolve
	a.upload += b.upload
}

// client is one closed-loop driver: it sends its next request only when
// the last one is done, over the benchmark's keep-alive connections.
type client struct {
	e    *env
	id   int
	auth []string
	br   *bodyReader
	n    reqCounts
	tr   *tracer // nil when untraced
}

func newClient(e *env, id int) *client {
	return &client{e: e, id: id, auth: []string{"Bearer " + e.tokens[id]}, br: newBodyReader()}
}

// do runs one op and checks its outcome. It returns the verified
// payload bytes and when the first byte of the op's payload response
// arrived.
func (c *client) do(ctx context.Context, idx int64, o *op) (int64, time.Time, error) {
	if o.kind == opUpload {
		return c.upload(ctx, idx, o)
	}
	e := c.e
	id, pat, base := e.ids[o.ds], e.pats[o.ds], e.urls[o.node]
	if o.resolve {
		if err := c.resolve(ctx, base, o); err != nil {
			return 0, time.Time{}, fmt.Errorf("resolve %s: %w", id, err)
		}
	}
	url := base + "/v1/fetch/" + string(id)
	var (
		n     int64
		first time.Time
		err   error
	)
	switch o.kind {
	case opWhole:
		n, first, err = c.get(ctx, url, "", o, func(r *http.Response) (int64, error) {
			return c.br.checkPlain(r, pat, 0, e.size, e.size, false)
		})
	case opRange:
		p := o.parts[0]
		n, first, err = c.get(ctx, url, rangeHeader(o.parts), o, func(r *http.Response) (int64, error) {
			return c.br.checkPlain(r, pat, p.off, p.n, e.size, true)
		})
	case opMulti:
		n, first, err = c.get(ctx, url, rangeHeader(o.parts), o, func(r *http.Response) (int64, error) {
			return c.br.checkMultipart(r, pat, o.parts, e.size)
		})
	case opSegWalk:
		seg := e.w.segmentSize
		walk := o.parts[0]
		for s := walk.off; s < walk.off+walk.n && err == nil; s++ {
			ext := storage.SegmentExtent(e.size, seg, s)
			var got int64
			var t time.Time
			got, t, err = c.get(ctx, url+"/segments/"+strconv.FormatInt(s, 10), "", o,
				func(r *http.Response) (int64, error) {
					return c.br.checkPlain(r, pat, s*seg, ext, e.size, false)
				})
			n += got
			if first.IsZero() {
				first = t
			}
		}
	default:
		return 0, time.Time{}, fmt.Errorf("unknown op kind %d", o.kind)
	}
	if err != nil {
		return n, first, fmt.Errorf("%s %s via edge %d: %w", opKindNames[o.kind], id, o.node, err)
	}
	return n, first, nil
}

// get issues one GET and hands the response to check, which must read
// the body. It returns check's verified bytes and when the response
// headers arrived.
func (c *client) get(ctx context.Context, url, rng string, o *op,
	check func(*http.Response) (int64, error)) (int64, time.Time, error) {
	var rt *reqTrace
	if c.tr != nil {
		rt = &reqTrace{}
		ctx = httptrace.WithClientTrace(ctx, rt.hooks())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, time.Time{}, err
	}
	req.Header["Authorization"] = c.auth
	if rng != "" {
		req.Header["Range"] = []string{rng}
	}
	if o.kind == opSegWalk {
		c.n.seg++
	} else {
		c.n.fetch++
	}
	if !o.holder {
		c.n.peer++
	}
	start := time.Now()
	c.br.verify = 0
	resp, err := c.e.hc.Do(req)
	if err != nil {
		return 0, time.Time{}, err
	}
	first := time.Now()
	n, err := check(resp)
	resp.Body.Close()
	if rt != nil {
		c.tr.request(rt, "http.fetch", start, time.Now(), c.br.verify)
	}
	return n, first, err
}

// resolve asks the target edge for the dataset's replica and checks the
// answer names the frozen holder and the dataset's size.
func (c *client) resolve(ctx context.Context, base string, o *op) error {
	e := c.e
	id := e.ids[o.ds]
	var rt *reqTrace
	if c.tr != nil {
		rt = &reqTrace{}
		ctx = httptrace.WithClientTrace(ctx, rt.hooks())
	}
	body, err := json.Marshal(server.ResolveRequest{Dataset: string(id)})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/resolve", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header["Authorization"] = c.auth
	c.n.resolve++
	start := time.Now()
	resp, err := e.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var rr server.ResolveResponse
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if rt != nil {
		c.tr.request(rt, "http.resolve", start, time.Now(), 0)
	}
	want := int64(e.lc.Nodes[e.holders[o.ds]].ID())
	if rr.Node != want || rr.Bytes != e.size || len(rr.Replicas) != 1 {
		return fmt.Errorf("resolved node %d, %d bytes, %d holders; want node %d, %d bytes, 1 holder",
			rr.Node, rr.Bytes, len(rr.Replicas), want, e.size)
	}
	return nil
}

// upload publishes op idx's new dataset through its target edge. The
// ID comes from the op index, so each upload in a run is new and the
// same seed uploads the same IDs and bytes.
func (c *client) upload(ctx context.Context, idx int64, o *op) (int64, time.Time, error) {
	id := uploadID(idx)
	rt := &reqTrace{}
	ctx = httptrace.WithClientTrace(ctx, rt.hooks())
	c.n.upload++
	start := time.Now()
	n, err := c.e.upload(ctx, c.id, id, payloadPattern(id), int(o.node))
	if c.tr != nil && err == nil {
		c.tr.request(rt, "http.upload", start, time.Now(), 0)
	}
	if err != nil {
		return 0, rt.first, fmt.Errorf("upload %s via edge %d: %w", id, o.node, err)
	}
	return n, rt.first, nil
}

func uploadID(idx int64) storage.DatasetID {
	return storage.DatasetID("up-" + strconv.FormatInt(idx, 10))
}

func rangeHeader(parts []span) string {
	var b strings.Builder
	b.WriteString("bytes=")
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(p.off, 10))
		b.WriteByte('-')
		b.WriteString(strconv.FormatInt(p.off+p.n-1, 10))
	}
	return b.String()
}

// reqTrace holds the httptrace timestamps of one request.
type reqTrace struct {
	getConn, gotConn, wrote, first time.Time
	reused                         bool
}

func (rt *reqTrace) hooks() *httptrace.ClientTrace {
	return &httptrace.ClientTrace{
		GetConn: func(string) { rt.getConn = time.Now() },
		GotConn: func(i httptrace.GotConnInfo) {
			rt.gotConn, rt.reused = time.Now(), i.Reused
		},
		WroteRequest:         func(httptrace.WroteRequestInfo) { rt.wrote = time.Now() },
		GotFirstResponseByte: func() { rt.first = time.Now() },
	}
}
