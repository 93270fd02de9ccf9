// Tests of core.Repository, the simulator's model of a researcher's
// shared folder. It lived in this package before it moved to
// internal/core, and its tests keep this package's name in the suite.

package storage_test

import (
	"testing"
	"testing/quick"
	"time"

	"scdn/internal/core"
	"scdn/internal/storage"
)

func newRepo(t *testing.T, capacity, reserve int64) *core.Repository {
	t.Helper()
	r, err := core.NewRepository(1, 0, capacity, reserve)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRepositoryValidation(t *testing.T) {
	if _, err := core.NewRepository(1, 0, 0, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := core.NewRepository(1, 0, 100, 200); err == nil {
		t.Fatal("reserve > capacity accepted")
	}
	if _, err := core.NewRepository(1, 0, 100, -1); err == nil {
		t.Fatal("negative reserve accepted")
	}
}

func TestStoreReplicaBounds(t *testing.T) {
	r := newRepo(t, 100, 60)
	if err := r.StoreReplica("a", 40, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.StoreReplica("a", 10, 0); err == nil {
		t.Fatal("duplicate replica accepted")
	}
	if err := r.StoreReplica("b", 30, 0); err == nil {
		t.Fatal("replica partition overflow accepted (40+30 > 60)")
	}
	if err := r.StoreReplica("b", 20, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.StoreReplica("c", 0, 0); err == nil {
		t.Fatal("zero-size object accepted")
	}
	st := r.Stats()
	if st.ReplicaUsedBytes != 60 || st.ReplicaObjects != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Free() != 40 {
		t.Fatalf("free = %d, want 40", st.Free())
	}
}

func TestDropReplica(t *testing.T) {
	r := newRepo(t, 100, 60)
	r.StoreReplica("a", 40, 0)
	if err := r.DropReplica("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.DropReplica("a"); err == nil {
		t.Fatal("double drop accepted")
	}
	if r.HasReplica("a") || r.Stats().ReplicaUsedBytes != 0 {
		t.Fatal("drop did not clear state")
	}
}

func TestReplicaIDsSorted(t *testing.T) {
	r := newRepo(t, 100, 100)
	r.StoreReplica("z", 10, 0)
	r.StoreReplica("a", 10, 0)
	r.StoreReplica("m", 10, 0)
	ids := r.ReplicaIDs()
	if len(ids) != 3 || ids[0] != "a" || ids[2] != "z" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestStoreUserLRUEviction(t *testing.T) {
	r := newRepo(t, 100, 0)
	r.StoreUser("old", 40, 1*time.Second)
	r.StoreUser("mid", 40, 2*time.Second)
	// Touch "old" so "mid" becomes the LRU victim.
	if _, ok := r.Read("old", 3*time.Second); !ok {
		t.Fatal("read miss")
	}
	if err := r.StoreUser("new", 40, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	if r.HasLocal("mid") {
		t.Fatal("LRU victim should be mid")
	}
	if !r.HasLocal("old") || !r.HasLocal("new") {
		t.Fatal("wrong objects evicted")
	}
	if r.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", r.Stats().Evictions)
	}
}

func TestStoreUserRespectsReplicaReserve(t *testing.T) {
	r := newRepo(t, 100, 60)
	r.StoreReplica("rep", 60, 0)
	// User budget = 100 - 60 = 40.
	if err := r.StoreUser("big", 50, 0); err == nil {
		t.Fatal("user object exceeding budget accepted")
	}
	if err := r.StoreUser("fits", 40, 0); err != nil {
		t.Fatal(err)
	}
}

func TestStoreUserReStoreRefreshes(t *testing.T) {
	r := newRepo(t, 100, 0)
	r.StoreUser("a", 30, 0)
	if err := r.StoreUser("a", 50, time.Second); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.UserUsedBytes != 50 || st.UserObjects != 1 {
		t.Fatalf("re-store stats = %+v", st)
	}
}

func TestReadHitsAndMisses(t *testing.T) {
	r := newRepo(t, 100, 50)
	r.StoreReplica("rep", 30, 0)
	r.StoreUser("usr", 30, 0)
	if _, ok := r.Read("rep", 0); !ok {
		t.Fatal("replica read missed")
	}
	if _, ok := r.Read("usr", 0); !ok {
		t.Fatal("user read missed")
	}
	if _, ok := r.Read("ghost", 0); ok {
		t.Fatal("phantom read hit")
	}
	st := r.Stats()
	if st.ReadHits != 2 || st.ReadMisses != 1 {
		t.Fatalf("hits/misses = %d/%d", st.ReadHits, st.ReadMisses)
	}
}

func TestHasLocalDoesNotTouchStats(t *testing.T) {
	r := newRepo(t, 100, 50)
	r.StoreReplica("rep", 30, 0)
	r.HasLocal("rep")
	r.HasLocal("ghost")
	st := r.Stats()
	if st.ReadHits != 0 || st.ReadMisses != 0 {
		t.Fatal("HasLocal touched stats")
	}
}

func TestUserIDs(t *testing.T) {
	r := newRepo(t, 100, 0)
	r.StoreUser("b", 10, 0)
	r.StoreUser("a", 10, 0)
	ids := r.UserIDs()
	if len(ids) != 2 || ids[0] != "a" {
		t.Fatalf("ids = %v", ids)
	}
}

// Property: usage accounting matches the sum of stored objects and never
// exceeds capacity, across arbitrary operation sequences.
func TestPropertyAccountingInvariant(t *testing.T) {
	type op struct {
		Kind  uint8
		ID    uint8
		Bytes uint8
	}
	f := func(ops []op) bool {
		r, _ := core.NewRepository(1, 0, 500, 200)
		now := time.Duration(0)
		for _, o := range ops {
			now += time.Second
			bytes := int64(o.Bytes%60) + 1
			// Disjoint ID ranges per partition so the partition-sum check
			// below can attribute sizes unambiguously.
			repID := storage.DatasetID(string(rune('a' + o.ID%4)))
			usrID := storage.DatasetID(string(rune('e' + o.ID%4)))
			switch o.Kind % 4 {
			case 0:
				r.StoreReplica(repID, bytes, now) //nolint:errcheck // errors expected
			case 1:
				r.StoreUser(usrID, bytes, now) //nolint:errcheck
			case 2:
				r.DropReplica(repID) //nolint:errcheck
			case 3:
				r.Read(repID, now)
			}
			st := r.Stats()
			var repSum, usrSum int64
			for _, rid := range r.ReplicaIDs() {
				obj, _ := r.Read(rid, now)
				repSum += obj.Bytes
			}
			for _, uid := range r.UserIDs() {
				obj, _ := r.Read(uid, now)
				usrSum += obj.Bytes
			}
			if st.ReplicaUsedBytes != repSum || st.UserUsedBytes != usrSum {
				return false
			}
			if st.ReplicaUsedBytes > 200 || st.ReplicaUsedBytes+st.UserUsedBytes > 500 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
