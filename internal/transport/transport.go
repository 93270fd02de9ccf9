// Package transport holds the delivery plane's process-wide tuned HTTP
// transport and the connection limits every peer connection keeps. It
// sits below every networked package so they can share one connection
// pool without importing each other: cdnclient's striped fetches and
// uploads and the load generator's workers ride the same warm
// keep-alive sockets. An edge reaches its peers only over its own relay
// (internal/server/relay.go), which keeps its per-peer connections
// under the same limits below.
package transport

import (
	"net"
	"net/http"
	"time"
)

// Connection limits shared by the tuned transport and the serving
// plane's peer relay.
const (
	// DialTimeout bounds one TCP connect.
	DialTimeout = 10 * time.Second
	// KeepAlive is the TCP keep-alive probe period of a dialed socket.
	KeepAlive = 30 * time.Second
	// MaxIdleConnsPerHost sizes the idle pool per peer. The stock
	// http.DefaultTransport keeps two, so a striped fan-out (or a
	// 32-worker load generator) that opens more concurrent requests
	// than that to one host churns through TCP handshakes as fast as
	// it closes sockets.
	MaxIdleConnsPerHost = 64
	// IdleConnTimeout is how long an unused kept-alive connection stays
	// pooled before it is closed.
	IdleConnTimeout = 90 * time.Second
)

// shared is the one tuned transport: keep-alives on and the per-host
// idle pool raised to MaxIdleConnsPerHost.
var shared = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   DialTimeout,
		KeepAlive: KeepAlive,
	}).DialContext,
	MaxIdleConns:        512,
	MaxIdleConnsPerHost: MaxIdleConnsPerHost,
	IdleConnTimeout:     IdleConnTimeout,
}

// NewClient returns an HTTP client over the shared transport.
// timeout <= 0 means no client-level timeout.
func NewClient(timeout time.Duration) *http.Client {
	return &http.Client{Transport: shared, Timeout: timeout}
}
