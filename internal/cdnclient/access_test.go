// Tests of core.Client, the simulator's Section V-A CDN client, with
// fakes of its collaborators (fallback_test.go shares them). It lived in
// this package before it moved to internal/core, and its tests keep this
// package's name in the suite.

package cdnclient_test

import (
	"errors"
	"testing"
	"time"

	"scdn/internal/allocation"
	"scdn/internal/core"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
)

type fakeAuth struct{ deny bool }

func (f *fakeAuth) Authorize(tok socialnet.Token, id storage.DatasetID) (socialnet.UserID, error) {
	if f.deny {
		return 0, errors.New("denied")
	}
	return 1, nil
}

type fakeResolver struct {
	replica    allocation.Replica
	found      bool
	bytes      int64
	origin     allocation.NodeID
	resolveErr error
}

func (f *fakeResolver) Resolve(id storage.DatasetID, requester allocation.NodeID) (allocation.Replica, bool, error) {
	return f.replica, f.found, f.resolveErr
}
func (f *fakeResolver) DatasetBytes(id storage.DatasetID) (int64, error) { return f.bytes, nil }
func (f *fakeResolver) Origin(id storage.DatasetID) (allocation.NodeID, error) {
	return f.origin, nil
}

type fakeFetcher struct {
	ok      bool
	submitE error
	fetches int
}

func (f *fakeFetcher) Fetch(src, dst allocation.NodeID, bytes int64,
	done func(bool, time.Duration, float64)) error {
	f.fetches++
	if f.submitE != nil {
		return f.submitE
	}
	done(f.ok, time.Second, 80)
	return nil
}

func setup(t *testing.T) (*core.Client, *fakeAuth, *fakeResolver, *fakeFetcher, *time.Duration) {
	t.Helper()
	repo, err := core.NewRepository(1, 0, 1000, 400)
	if err != nil {
		t.Fatal(err)
	}
	auth := &fakeAuth{}
	res := &fakeResolver{replica: allocation.Replica{Node: 5, Site: 1}, found: true, bytes: 100, origin: 9}
	fet := &fakeFetcher{ok: true}
	now := new(time.Duration)
	c, err := core.NewClient(1, "tok", repo, auth, res, fet, func() time.Duration { return *now })
	if err != nil {
		t.Fatal(err)
	}
	return c, auth, res, fet, now
}

func TestNewValidation(t *testing.T) {
	if _, err := core.NewClient(1, "t", nil, &fakeAuth{}, &fakeResolver{}, &fakeFetcher{}, func() time.Duration { return 0 }); err == nil {
		t.Fatal("nil repo accepted")
	}
}

func access(t *testing.T, c *core.Client, id storage.DatasetID) core.AccessResult {
	t.Helper()
	var got *core.AccessResult
	c.Access(id, func(r core.AccessResult) { got = &r })
	if got == nil {
		t.Fatal("done not called")
	}
	return *got
}

func TestAccessLocalHit(t *testing.T) {
	c, _, _, fet, _ := setup(t)
	c.Repo.StoreUser("d", 50, 0)
	r := access(t, c, "d")
	if r.Outcome != core.LocalHit {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if fet.fetches != 0 {
		t.Fatal("local hit should not fetch")
	}
	if c.ByOutcome[core.LocalHit] != 1 || c.Accesses != 1 {
		t.Fatal("stats wrong")
	}
}

func TestAccessReplicaFetchStoresLocally(t *testing.T) {
	c, _, _, _, _ := setup(t)
	r := access(t, c, "d")
	if r.Outcome != core.ReplicaFetch || r.Source != 5 {
		t.Fatalf("result = %+v", r)
	}
	if r.ThroughputMbps != 80 {
		t.Fatalf("throughput = %v", r.ThroughputMbps)
	}
	if !c.Repo.HasLocal("d") {
		t.Fatal("fetched data not stored")
	}
	// Second access is a local hit.
	if r := access(t, c, "d"); r.Outcome != core.LocalHit {
		t.Fatalf("second access = %v", r.Outcome)
	}
}

func TestAccessOriginFetch(t *testing.T) {
	c, _, res, _, _ := setup(t)
	res.replica = allocation.Replica{Node: 9, Site: 2}
	res.origin = 9
	if r := access(t, c, "d"); r.Outcome != core.OriginFetch {
		t.Fatalf("outcome = %v", r.Outcome)
	}
}

func TestAccessDenied(t *testing.T) {
	c, auth, _, fet, _ := setup(t)
	auth.deny = true
	r := access(t, c, "d")
	if r.Outcome != core.Denied || r.Err == nil {
		t.Fatalf("result = %+v", r)
	}
	if fet.fetches != 0 {
		t.Fatal("denied access should not fetch")
	}
}

func TestAccessUnavailable(t *testing.T) {
	c, _, res, _, _ := setup(t)
	res.found = false
	if r := access(t, c, "d"); r.Outcome != core.Unavailable {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	res.resolveErr = errors.New("boom")
	if r := access(t, c, "d"); r.Outcome != core.Unavailable || r.Err == nil {
		t.Fatalf("outcome = %v", r.Outcome)
	}
}

func TestAccessTransferFailed(t *testing.T) {
	c, _, _, fet, _ := setup(t)
	fet.ok = false
	if r := access(t, c, "d"); r.Outcome != core.TransferFailed {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	fet.submitE = errors.New("submit failed")
	if r := access(t, c, "d"); r.Outcome != core.TransferFailed || r.Err == nil {
		t.Fatalf("outcome = %v", r.Outcome)
	}
}

func TestAccessSucceedsEvenIfStoreFails(t *testing.T) {
	c, _, res, _, _ := setup(t)
	res.bytes = 5000 // exceeds repo capacity: StoreUser fails
	r := access(t, c, "d")
	if r.Outcome != core.ReplicaFetch {
		t.Fatalf("outcome = %v, want ReplicaFetch despite store failure", r.Outcome)
	}
	if r.Err == nil {
		t.Fatal("store failure should surface in Err")
	}
}

func TestAccessElapsed(t *testing.T) {
	c, _, _, _, now := setup(t)
	// Simulate a clock that advances during fetch via the done callback:
	// fakeFetcher calls done synchronously, so advance before access to
	// check elapsed baseline = 0.
	*now = 5 * time.Second
	r := access(t, c, "d")
	if r.Elapsed != 0 {
		t.Fatalf("elapsed = %v with static clock", r.Elapsed)
	}
}

func TestHostReplicaAccept(t *testing.T) {
	c, _, _, _, _ := setup(t)
	var accepted, fetched bool
	c.HostReplica("rep", 9, 100, func(a, f bool) { accepted, fetched = a, f })
	if !accepted || !fetched {
		t.Fatalf("host = %v/%v", accepted, fetched)
	}
	if !c.Repo.HasReplica("rep") {
		t.Fatal("replica not stored")
	}
}

func TestHostReplicaRejectsWhenFull(t *testing.T) {
	c, _, _, fet, _ := setup(t)
	c.Repo.StoreReplica("existing", 400, 0) // fills the 400-byte reserve
	var accepted bool
	c.HostReplica("rep", 9, 100, func(a, f bool) { accepted = a })
	if accepted {
		t.Fatal("over-reserve placement accepted")
	}
	if fet.fetches != 0 {
		t.Fatal("rejected placement should not fetch")
	}
	// Duplicate replica also rejected.
	c2, _, _, _, _ := setup(t)
	c2.Repo.StoreReplica("rep", 10, 0)
	accepted = true
	c2.HostReplica("rep", 9, 10, func(a, f bool) { accepted = a })
	if accepted {
		t.Fatal("duplicate replica accepted")
	}
}

func TestHostReplicaFetchFailure(t *testing.T) {
	c, _, _, fet, _ := setup(t)
	fet.ok = false
	var accepted, fetched bool
	c.HostReplica("rep", 9, 100, func(a, f bool) { accepted, fetched = a, f })
	if !accepted || fetched {
		t.Fatalf("host = %v/%v, want accepted but not fetched", accepted, fetched)
	}
	if c.Repo.HasReplica("rep") {
		t.Fatal("failed fetch stored replica")
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[core.Outcome]string{
		core.LocalHit: "local-hit", core.ReplicaFetch: "replica-fetch", core.OriginFetch: "origin-fetch",
		core.Denied: "denied", core.Unavailable: "unavailable", core.TransferFailed: "transfer-failed",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
	if core.Outcome(42).String() != "outcome(42)" {
		t.Error("unknown outcome String wrong")
	}
}
