// Package ctxhttp exercises the ctxhttp analyzer: outbound requests in
// a configured package must be built with a context.
package ctxhttp

import (
	"context"
	"net"
	"net/http"
	"time"
)

// plainGet uses the context-less client helper.
func plainGet(c *http.Client) {
	resp, err := c.Get("http://example.com") // want "http.Client.Get"
	if err == nil {
		resp.Body.Close()
	}
}

// plainNewRequest builds a request with no context.
func plainNewRequest() {
	req, _ := http.NewRequest(http.MethodGet, "http://example.com", nil) // want "http.NewRequest"
	_ = req
}

// pkgGet uses the context-less package helper.
func pkgGet() {
	resp, err := http.Get("http://example.com") // want "http.Get builds"
	if err == nil {
		resp.Body.Close()
	}
}

// withCtx is the required shape — clean.
func withCtx(ctx context.Context, c *http.Client) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://example.com", nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// plainDial dials with no context, three ways.
func plainDial() {
	if c, err := net.Dial("tcp", "example.com:80"); err == nil { // want "net.Dial dials"
		c.Close()
	}
	if c, err := net.DialTimeout("tcp", "example.com:80", time.Second); err == nil { // want "net.DialTimeout dials"
		c.Close()
	}
	d := net.Dialer{Timeout: time.Second}
	if c, err := d.Dial("tcp", "example.com:80"); err == nil { // want "net.Dialer.Dial dials"
		c.Close()
	}
	pd := &net.Dialer{}
	if c, err := pd.Dial("tcp", "example.com:80"); err == nil { // want "net.Dialer.Dial dials"
		c.Close()
	}
}

// dialCtx is the required shape — clean.
func dialCtx(ctx context.Context) error {
	d := net.Dialer{Timeout: time.Second}
	c, err := d.DialContext(ctx, "tcp", "example.com:80")
	if err != nil {
		return err
	}
	return c.Close()
}
