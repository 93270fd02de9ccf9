package cdnclient_test

import (
	"testing"

	"scdn/internal/allocation"
	"scdn/internal/core"
)

// TestFallbackDegradationChain drives one client through the CDN's
// degradation ladder as holders disappear — ReplicaFetch while a replica
// is online, OriginFetch once only the owner remains, Unavailable once
// nobody is — pinning the outcome semantics the HTTP serving plane
// (internal/server) mirrors: its peer hit, origin fetch, and bad-gateway
// responses classify accesses exactly like the simulated client.
func TestFallbackDegradationChain(t *testing.T) {
	c, _, res, _, _ := setup(t)
	res.origin = 9

	// Stage 1: a non-origin replica (node 5) is the resolved holder.
	res.replica = allocation.Replica{Node: 5, Site: 1}
	if r := access(t, c, "a"); r.Outcome != core.ReplicaFetch || r.Source != 5 {
		t.Fatalf("stage 1 = %+v, want ReplicaFetch from 5", r)
	}

	// Stage 2: the replica host churns away; resolution falls back to
	// the origin holder — same protocol, different outcome class.
	res.replica = allocation.Replica{Node: 9, Site: 2}
	if r := access(t, c, "b"); r.Outcome != core.OriginFetch || r.Source != 9 {
		t.Fatalf("stage 2 = %+v, want OriginFetch from 9", r)
	}

	// Stage 3: the origin goes offline too; no holder resolves.
	res.found = false
	if r := access(t, c, "c"); r.Outcome != core.Unavailable {
		t.Fatalf("stage 3 = %+v, want Unavailable", r)
	}

	// The ladder is recorded in the client-side statistics the client
	// reports to allocation servers (POST /v1/report on the live plane).
	if c.Accesses != 3 {
		t.Fatalf("accesses = %d, want 3", c.Accesses)
	}
	for _, o := range []core.Outcome{core.ReplicaFetch, core.OriginFetch, core.Unavailable} {
		if c.ByOutcome[o] != 1 {
			t.Fatalf("ByOutcome[%v] = %d, want 1", o, c.ByOutcome[o])
		}
	}

	// Stage 4: a holder returns; the ladder climbs back up.
	res.found = true
	if r := access(t, c, "d"); r.Outcome != core.OriginFetch {
		t.Fatalf("stage 4 = %+v, want OriginFetch after rejoin", r)
	}
}

// TestFallbackCachedCopySurvivesOutage: data fetched during stage 1
// keeps serving locally after every remote holder is gone — the edge
// behavior the live plane's pull-through caching reproduces.
func TestFallbackCachedCopySurvivesOutage(t *testing.T) {
	c, _, res, _, _ := setup(t)
	if r := access(t, c, "d"); r.Outcome != core.ReplicaFetch {
		t.Fatalf("warmup = %+v", r)
	}
	res.found = false // total outage
	if r := access(t, c, "d"); r.Outcome != core.LocalHit {
		t.Fatalf("post-outage access = %+v, want LocalHit", r)
	}
	if r := access(t, c, "other"); r.Outcome != core.Unavailable {
		t.Fatalf("uncached access = %+v, want Unavailable", r)
	}
}
