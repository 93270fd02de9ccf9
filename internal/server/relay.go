package server

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"scdn/internal/transport"
)

// The relay is the node's one client for its peers. Every exchange
// with another edge — a client fetch's hop, a repair copy, a health
// probe — is one GET (or HEAD) over it, not over http.Transport: a hop's
// answer is streamed straight back to the client, so the transport's
// per-request goroutine hand-offs and allocations are pure overhead. The
// relay keeps a few kept-alive connections per peer address, writes the
// request head itself, reads the response head with http.ReadResponse,
// and moves a known-length body off the raw socket with io.Copy, which
// net/http's ResponseWriter turns into splice(2).

// peerTimeout bounds one relay exchange end to end, head and body; a
// health probe's context bounds it tighter (ProbeTimeout).
const peerTimeout = 30 * time.Second

// pastDeadline, set as a connection's deadline, fails its pending and
// future I/O at once.
var pastDeadline = time.Unix(1, 0)

// The requests http.ReadResponse is told it answers: only the method
// is read, to know whether a body follows the head.
var (
	relayGET  = &http.Request{Method: http.MethodGet}
	relayHEAD = &http.Request{Method: http.MethodHead}
)

// relayPool holds the node's idle relay connections: at most
// transport.MaxIdleConnsPerHost per peer address, each closed after
// transport.IdleConnTimeout unused.
type relayPool struct {
	mu sync.Mutex
	// epoch is bumped by closeIdle: a connection dialed before is
	// closed when released, never pooled.
	epoch uint64
	idle  map[string][]*relayConn // by peer host:port, most recently used last
}

// relayConn is one kept-alive connection to a peer.
type relayConn struct {
	pool   *relayPool
	addr   string
	epoch  uint64
	conn   net.Conn // a *net.TCPConn: the body splices off it
	br     *bufio.Reader
	head   []byte           // the request head, rendered per request
	lr     io.LimitedReader // the spliced body window
	stop   func() bool      // unhooks the request's cancellation
	timer  *time.Timer      // idle expiry, armed while pooled
	idleAt time.Time
}

// relayRequest is the head of one hop. Its values come from this node
// or from a request net/http already parsed, so none holds a CR or LF.
type relayRequest struct {
	method, path, auth, peer, rangeHdr string
}

// appendHead renders the request head for the peer at host.
func (q *relayRequest) appendHead(b []byte, host string) []byte {
	b = append(b, q.method...)
	b = append(b, ' ')
	b = append(b, q.path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\nAuthorization: "...)
	b = append(b, q.auth...)
	b = append(b, "\r\n"+peerHeader+": "...)
	b = append(b, q.peer...)
	if q.rangeHdr != "" {
		b = append(b, "\r\nRange: "...)
		b = append(b, q.rangeHdr...)
	}
	return append(b, "\r\n\r\n"...)
}

// roundTrip sends q to the peer at addr and reads the response head.
// On success the caller owns the connection and must release it. A
// reused connection that fails before any response byte arrives — the
// peer closed it while it sat idle — is retried once on a fresh dial,
// as http.Transport retries an idempotent request.
func (p *relayPool) roundTrip(ctx context.Context, addr string, q *relayRequest) (*relayConn, *http.Response, error) {
	rc, reused, err := p.get(ctx, addr)
	if err != nil {
		return nil, nil, err
	}
	resp, silent, err := rc.send(ctx, q)
	if err != nil && reused && silent && ctx.Err() == nil {
		rc.close()
		if rc, err = p.dial(ctx, addr); err != nil {
			return nil, nil, err
		}
		resp, _, err = rc.send(ctx, q)
	}
	if err != nil {
		rc.close()
		return nil, nil, err
	}
	return rc, resp, nil
}

// get takes the most recently used idle connection to addr, or dials a
// new one. reused reports a pooled connection.
func (p *relayPool) get(ctx context.Context, addr string) (rc *relayConn, reused bool, _ error) {
	p.mu.Lock()
	if list := p.idle[addr]; len(list) > 0 {
		rc = list[len(list)-1]
		list[len(list)-1] = nil
		p.idle[addr] = list[:len(list)-1]
		rc.timer.Stop()
		p.mu.Unlock()
		return rc, true, nil
	}
	p.mu.Unlock()
	rc, err := p.dial(ctx, addr)
	return rc, false, err
}

// dial opens a fresh connection to addr.
func (p *relayPool) dial(ctx context.Context, addr string) (*relayConn, error) {
	p.mu.Lock()
	epoch := p.epoch
	p.mu.Unlock()
	d := net.Dialer{Timeout: transport.DialTimeout, KeepAlive: transport.KeepAlive}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &relayConn{pool: p, addr: addr, epoch: epoch, conn: c, br: bufio.NewReader(c)}, nil
}

// put pools a released connection, or closes it when the pool was
// closed since it was dialed or already holds the per-peer maximum.
func (p *relayPool) put(rc *relayConn) {
	p.mu.Lock()
	list := p.idle[rc.addr]
	if rc.epoch != p.epoch || len(list) >= transport.MaxIdleConnsPerHost {
		p.mu.Unlock()
		_ = rc.conn.Close()
		return
	}
	if p.idle == nil {
		p.idle = make(map[string][]*relayConn)
	}
	p.idle[rc.addr] = append(list, rc)
	rc.idleAt = time.Now()
	if rc.timer == nil {
		rc.timer = time.AfterFunc(transport.IdleConnTimeout, rc.expire)
	} else {
		rc.timer.Reset(transport.IdleConnTimeout)
	}
	p.mu.Unlock()
}

// expire closes rc if it is still pooled and has been idle the full
// timeout (a timer that fired just as rc was taken and re-pooled finds
// it fresh and leaves it).
func (rc *relayConn) expire() {
	p := rc.pool
	p.mu.Lock()
	list := p.idle[rc.addr]
	for i, c := range list {
		if c != rc {
			continue
		}
		if time.Since(rc.idleAt) < transport.IdleConnTimeout {
			break
		}
		copy(list[i:], list[i+1:])
		list[len(list)-1] = nil
		p.idle[rc.addr] = list[:len(list)-1]
		p.mu.Unlock()
		_ = rc.conn.Close()
		return
	}
	p.mu.Unlock()
}

// closeIdle closes every pooled connection; connections in use are
// closed when released (Stop, Crash).
func (p *relayPool) closeIdle() {
	p.mu.Lock()
	p.epoch++
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, list := range idle {
		for _, rc := range list {
			rc.timer.Stop()
			_ = rc.conn.Close()
		}
	}
}

// send writes q's head and reads the response head under peerTimeout,
// with the request context's cancellation hooked to the connection's
// deadline. silent reports a failure before any response byte arrived.
func (rc *relayConn) send(ctx context.Context, q *relayRequest) (resp *http.Response, silent bool, err error) {
	if err := rc.conn.SetDeadline(time.Now().Add(peerTimeout)); err != nil {
		return nil, true, err
	}
	rc.stop = context.AfterFunc(ctx, func() { _ = rc.conn.SetDeadline(pastDeadline) })
	rc.head = q.appendHead(rc.head[:0], rc.addr)
	if _, err := rc.conn.Write(rc.head); err != nil {
		return nil, true, err
	}
	if _, err := rc.br.Peek(1); err != nil {
		return nil, true, err
	}
	req := relayGET
	if q.method == http.MethodHead {
		req = relayHEAD
	}
	resp, err = http.ReadResponse(rc.br, req)
	return resp, false, err
}

// relayBody streams a length-byte body to w: first what reading the
// head already buffered, then the rest straight off the socket — an
// io.Copy of a LimitedReader over the connection, which net/http's
// ResponseWriter turns into splice(2).
func (rc *relayConn) relayBody(w io.Writer, length int64) (int64, error) {
	var written int64
	if k := min(int64(rc.br.Buffered()), length); k > 0 {
		buf, _ := rc.br.Peek(int(k))
		m, err := w.Write(buf)
		_, _ = rc.br.Discard(m) // never short: m bytes are buffered
		written = int64(m)
		if err != nil {
			return written, err
		}
	}
	rc.lr = io.LimitedReader{R: rc.conn, N: length - written}
	m, err := io.Copy(w, &rc.lr)
	rc.lr.R = nil
	return written + m, err
}

// release ends the request on rc: the connection returns to the pool
// when keep holds — the response was read exactly to its end and the
// peer keeps the connection open — and its cancellation hook never
// fired; otherwise it is closed.
func (rc *relayConn) release(keep bool) {
	if !rc.stop() {
		keep = false // the request's context fired: the deadline is poisoned
	}
	rc.stop = nil
	if !keep || rc.br.Buffered() > 0 || rc.conn.SetDeadline(time.Time{}) != nil {
		_ = rc.conn.Close()
		return
	}
	rc.pool.put(rc)
}

// close unhooks and closes a connection that failed mid-request.
func (rc *relayConn) close() {
	if rc.stop != nil {
		rc.stop()
		rc.stop = nil
	}
	_ = rc.conn.Close()
}
