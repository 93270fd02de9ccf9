package server

import (
	"net"
	"testing"
)

// TestSameHost pins which accepted connections get the bounded send
// buffer: a peer on loopback does; a peer at any other address keeps
// the kernel's autotuning, this host's own non-loopback address
// included (that path is unmeasured).
func TestSameHost(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remote string
		want   bool
	}{
		{"IPv4 loopback", "127.0.0.1", true},
		{"other IPv4 loopback address", "127.0.0.2", true},
		{"IPv6 loopback", "::1", true},
		{"IPv4-mapped loopback", "::ffff:127.0.0.1", true},
		{"own or other IPv4 address", "10.0.0.5", false},
		{"own or other IPv4-mapped address", "::ffff:10.0.0.5", false},
		{"own or other IPv6 address", "2001:db8::5", false},
	} {
		remote := net.ParseIP(tc.remote)
		if remote == nil {
			t.Fatalf("%s: bad test address", tc.name)
		}
		if got := sameHost(remote); got != tc.want {
			t.Errorf("%s: sameHost(%s) = %v, want %v", tc.name, tc.remote, got, tc.want)
		}
	}
}
