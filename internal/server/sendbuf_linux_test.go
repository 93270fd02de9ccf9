package server

import (
	"io"
	"net"
	"syscall"
	"testing"
)

// sendBuffer reads a connection's SO_SNDBUF.
func sendBuffer(t *testing.T, c *net.TCPConn) int {
	t.Helper()
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		n, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return n
}

// TestSameHostSendBufferBounded: a loopback connection accepted through
// sameHostListener keeps its send buffer at the bound after streaming
// 16 MiB, where autotuning would have grown it toward tcp_wmem's
// ceiling. Linux reports twice the value set, so the bound reads back
// as at most 2 × sameHostSendBuffer.
func TestSameHostSendBufferBounded(t *testing.T) {
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := sameHostListener{tl}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const body = 16 << 20
	drained := make(chan error, 1)
	go func() {
		n, err := io.Copy(io.Discard, client)
		if err == nil && n != body {
			err = io.ErrUnexpectedEOF
		}
		drained <- err
	}()
	if _, err := c.Write(make([]byte, body)); err != nil {
		t.Fatal(err)
	}
	tc := c.(*net.TCPConn)
	got := sendBuffer(t, tc)
	if err := tc.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("client read: %v", err)
	}
	if got > 2*sameHostSendBuffer {
		t.Fatalf("SO_SNDBUF after a 16 MiB stream = %d, want at most %d", got, 2*sameHostSendBuffer)
	}
}
