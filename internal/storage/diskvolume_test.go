package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// fillBytes returns a fill func writing b.
func fillBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// pattern builds deterministic content for a dataset.
func pattern(id DatasetID, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(id[len(id)-1]) + i)
	}
	return b
}

func newVolume(t *testing.T, quota int64) *DiskVolume {
	t.Helper()
	v, err := NewDiskVolume(filepath.Join(t.TempDir(), "vol"), quota)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func readAll(t *testing.T, v *DiskVolume, id DatasetID) []byte {
	t.Helper()
	f, size, ok := v.Open(id)
	if !ok {
		t.Fatalf("open %q: miss", id)
	}
	defer v.Release(id, f)
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) != size {
		t.Fatalf("read %d bytes of %q, Open reported %d", len(b), id, size)
	}
	return b
}

func TestMaterializeAndOpen(t *testing.T) {
	v := newVolume(t, 1<<20)
	want := pattern("ds-a", 4096)
	did, err := v.Materialize("ds-a", 4096, fillBytes(want))
	if err != nil {
		t.Fatal(err)
	}
	if !did {
		t.Fatal("first materialize reported no work")
	}
	if !v.Has("ds-a") || v.Len() != 1 {
		t.Fatalf("volume state after materialize: has=%v len=%d", v.Has("ds-a"), v.Len())
	}
	if got := readAll(t, v, "ds-a"); !bytes.Equal(got, want) {
		t.Fatal("materialized bytes diverge")
	}
	// Second materialize is a no-op.
	if did, err = v.Materialize("ds-a", 4096, fillBytes(want)); err != nil || did {
		t.Fatalf("re-materialize = (%v, %v), want (false, nil)", did, err)
	}
	st := v.Stats()
	if st.Files != 1 || st.UsedBytes != 4096 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReleasePoolsHandles(t *testing.T) {
	v := newVolume(t, 1<<20)
	if _, err := v.Materialize("ds-a", 64, fillBytes(pattern("ds-a", 64))); err != nil {
		t.Fatal(err)
	}
	f1, _, ok := v.Open("ds-a")
	if !ok {
		t.Fatal("miss")
	}
	// Move the offset; Release must rewind before pooling.
	if _, err := io.CopyN(io.Discard, f1, 10); err != nil {
		t.Fatal(err)
	}
	v.Release("ds-a", f1)
	f2, _, ok := v.Open("ds-a")
	if !ok {
		t.Fatal("miss after release")
	}
	defer v.Release("ds-a", f2)
	if f2 != f1 {
		t.Fatal("released handle not pooled")
	}
	if off, err := f2.Seek(0, io.SeekCurrent); err != nil || off != 0 {
		t.Fatalf("pooled handle at offset %d (err %v), want 0", off, err)
	}
}

func TestSpillInvisibleUntilCommit(t *testing.T) {
	v := newVolume(t, 1<<20)
	sp, err := v.NewSpill("ds-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write(pattern("ds-a", 100)[:60]); err != nil {
		t.Fatal(err)
	}
	// Partial spill: no replica visible, one temp file on disk.
	if v.Has("ds-a") {
		t.Fatal("partial spill visible as replica")
	}
	if _, _, ok := v.Open("ds-a"); ok {
		t.Fatal("partial spill openable")
	}
	if n := len(v.TempFiles()); n != 1 {
		t.Fatalf("temp files = %d, want 1", n)
	}
	// Committing with the wrong byte count fails and removes the temp.
	if err := sp.Commit(100); err == nil {
		t.Fatal("short spill committed")
	}
	if v.Has("ds-a") || len(v.TempFiles()) != 0 {
		t.Fatalf("short commit left state: has=%v temps=%d", v.Has("ds-a"), len(v.TempFiles()))
	}

	// A full spill commits atomically.
	sp, err = v.NewSpill("ds-a")
	if err != nil {
		t.Fatal(err)
	}
	want := pattern("ds-a", 100)
	if _, err := sp.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := sp.Commit(100); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, v, "ds-a"); !bytes.Equal(got, want) {
		t.Fatal("committed bytes diverge")
	}
	if len(v.TempFiles()) != 0 {
		t.Fatal("commit left temp files")
	}
}

func TestSpillAbort(t *testing.T) {
	v := newVolume(t, 1<<20)
	sp, err := v.NewSpill("ds-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	sp.Abort()
	if v.Has("ds-a") || len(v.TempFiles()) != 0 {
		t.Fatal("abort left state behind")
	}
	// Abort after abort is a no-op; commit after abort fails.
	sp.Abort()
	if err := sp.Commit(7); err == nil {
		t.Fatal("commit after abort succeeded")
	}
}

// TestCommitVerifiedContract pins what CommitVerified hands its
// verifier — a SectionReader over exactly want bytes of the finished
// temp file, readable by offset — and that a verifier error removes the
// temp file and publishes nothing.
func TestCommitVerifiedContract(t *testing.T) {
	v := newVolume(t, 1<<20)
	want := pattern("ds-v", 5000)
	sp, err := v.NewSpill("ds-v")
	if err != nil {
		t.Fatal(err)
	}
	// Positioned writes out of order, as striped uploads make them.
	if _, err := sp.WriteAt(want[3000:], 3000); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.WriteAt(want[:3000], 0); err != nil {
		t.Fatal(err)
	}
	err = sp.CommitVerified(int64(len(want)), func(r io.Reader) error {
		sr, ok := r.(*io.SectionReader)
		if !ok {
			return fmt.Errorf("verifier got %T, want *io.SectionReader", r)
		}
		if sr.Size() != int64(len(want)) {
			return fmt.Errorf("section size %d, want %d", sr.Size(), len(want))
		}
		tail := make([]byte, 100)
		if _, err := sr.ReadAt(tail, int64(len(want)-100)); err != nil {
			return err
		}
		got, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) || !bytes.Equal(tail, want[len(want)-100:]) {
			return fmt.Errorf("verifier read diverging bytes")
		}
		return nil
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, v, "ds-v"); !bytes.Equal(got, want) {
		t.Fatal("committed bytes diverge")
	}

	sp, err = v.NewSpill("ds-w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write(want); err != nil {
		t.Fatal(err)
	}
	reject := errors.New("reject")
	if err := sp.CommitVerified(int64(len(want)), func(io.Reader) error { return reject }, false); !errors.Is(err, reject) {
		t.Fatalf("err = %v, want the verifier's", err)
	}
	if v.Has("ds-w") || len(v.TempFiles()) != 0 {
		t.Fatalf("rejected spill left state: has=%v temps=%d", v.Has("ds-w"), len(v.TempFiles()))
	}
}

func TestQuotaEviction(t *testing.T) {
	v := newVolume(t, 10*1024)
	for i := 0; i < 3; i++ {
		id := DatasetID(fmt.Sprintf("ds-%d", i))
		if _, err := v.Materialize(id, 4096, fillBytes(pattern(id, 4096))); err != nil {
			t.Fatal(err)
		}
	}
	// 3 × 4 KiB > 10 KiB: the least recently used replica (ds-0) is gone.
	st := v.Stats()
	if st.UsedBytes > st.QuotaBytes {
		t.Fatalf("usage %d exceeds quota %d", st.UsedBytes, st.QuotaBytes)
	}
	if st.Evictions != 1 || v.Has("ds-0") || !v.Has("ds-1") || !v.Has("ds-2") {
		t.Fatalf("eviction state: %+v has0=%v has1=%v has2=%v",
			st, v.Has("ds-0"), v.Has("ds-1"), v.Has("ds-2"))
	}
	// The evicted file is really unlinked.
	if _, err := os.Stat(v.path("ds-0")); !os.IsNotExist(err) {
		t.Fatalf("evicted file still on disk: %v", err)
	}
	// Recency protects a replica: touch ds-1, insert another, ds-2 goes.
	f, _, ok := v.Open("ds-1")
	if !ok {
		t.Fatal("ds-1 missing")
	}
	v.Release("ds-1", f)
	if _, err := v.Materialize("ds-3", 4096, fillBytes(pattern("ds-3", 4096))); err != nil {
		t.Fatal(err)
	}
	if !v.Has("ds-1") || v.Has("ds-2") || !v.Has("ds-3") {
		t.Fatalf("LRU order violated: has1=%v has2=%v has3=%v",
			v.Has("ds-1"), v.Has("ds-2"), v.Has("ds-3"))
	}
}

func TestOversizedReplicaRejected(t *testing.T) {
	v := newVolume(t, 1024)
	if _, err := v.Materialize("big", 2048, fillBytes(make([]byte, 2048))); err == nil {
		t.Fatal("replica larger than the quota accepted")
	}
	if v.Has("big") || len(v.TempFiles()) != 0 {
		t.Fatal("oversized materialize left state")
	}
}

func TestRecoveryAdoptsFilesAndSweepsTemps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "vol")
	v, err := NewDiskVolume(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []DatasetID{"ds-a", "ds/b"} { // "/" exercises escaping
		if _, err := v.Materialize(id, 512, fillBytes(pattern(id, 512))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-spill: a stray temp file.
	stray := filepath.Join(dir, "tmp", "ds-c.99")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: replicas adopted, temp swept.
	v2, err := NewDiskVolume(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Len() != 2 || !v2.Has("ds-a") || !v2.Has("ds/b") {
		t.Fatalf("recovery adopted %d replicas (a=%v b=%v), want 2",
			v2.Len(), v2.Has("ds-a"), v2.Has("ds/b"))
	}
	if got := readAll(t, v2, "ds/b"); !bytes.Equal(got, pattern("ds/b", 512)) {
		t.Fatal("adopted bytes diverge")
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray temp survived recovery")
	}
	if st := v2.Stats(); st.UsedBytes != 1024 {
		t.Fatalf("recovered usage = %d, want 1024", st.UsedBytes)
	}
}

func TestMaterializeSingleFlight(t *testing.T) {
	v := newVolume(t, 1<<20)
	var fills, did int32
	var mu sync.Mutex
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			d, err := v.Materialize("hot", 4096, func(w io.Writer) error {
				mu.Lock()
				fills++
				mu.Unlock()
				_, err := w.Write(pattern("hot", 4096))
				return err
			})
			if err != nil {
				t.Error(err)
			}
			if d {
				mu.Lock()
				did++
				mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()
	if fills != 1 || did != 1 {
		t.Fatalf("fills = %d, leaders = %d, want 1 and 1", fills, did)
	}
}

// TestConcurrentMaterializeReadEvict hammers every mutating and reading
// path at once under a tight quota; run with -race. At the end the
// volume must satisfy its invariants: usage within quota, every indexed
// replica intact on disk, no temp litter.
func TestConcurrentMaterializeReadEvict(t *testing.T) {
	const (
		workers  = 8
		iters    = 60
		objSize  = 2048
		datasets = 12
	)
	v := newVolume(t, 6*objSize) // forces constant eviction churn
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				id := DatasetID(fmt.Sprintf("ds-%d", rng.Intn(datasets)))
				switch rng.Intn(4) {
				case 0: // materialize
					if _, err := v.Materialize(id, objSize, fillBytes(pattern(id, objSize))); err != nil {
						t.Error(err)
						return
					}
				case 1: // read and verify whatever is present
					if f, size, ok := v.Open(id); ok {
						b, err := io.ReadAll(f)
						v.Release(id, f)
						if err != nil {
							t.Error(err)
							return
						}
						if int64(len(b)) != size || !bytes.Equal(b, pattern(id, objSize)) {
							t.Errorf("read of %q returned wrong bytes (%d of %d)", id, len(b), size)
							return
						}
					}
				case 2: // spill the same content through the streaming path
					sp, err := v.NewSpill(id)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := sp.Write(pattern(id, objSize)); err != nil {
						sp.Abort()
						continue
					}
					if err := sp.Commit(objSize); err != nil {
						t.Error(err)
						return
					}
				case 3: // evict explicitly
					v.Remove(id)
				}
			}
		}(w)
	}
	wg.Wait()

	st := v.Stats()
	if st.UsedBytes > st.QuotaBytes {
		t.Fatalf("usage %d exceeds quota %d", st.UsedBytes, st.QuotaBytes)
	}
	for _, id := range v.IDs() {
		if got := readAll(t, v, id); !bytes.Equal(got, pattern(id, objSize)) {
			t.Fatalf("surviving replica %q corrupt", id)
		}
	}
	if temps := v.TempFiles(); len(temps) != 0 {
		t.Fatalf("temp litter after churn: %v", temps)
	}
}

func TestNewDiskVolumeValidation(t *testing.T) {
	if _, err := NewDiskVolume(filepath.Join(t.TempDir(), "v"), 0); err == nil {
		t.Fatal("zero quota accepted")
	}
}
