package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// allocated returns the bytes the filesystem has allocated to path.
func allocated(t *testing.T, path string) int64 {
	t.Helper()
	var st syscall.Stat_t
	if err := syscall.Stat(path, &st); err != nil {
		t.Fatal(err)
	}
	return st.Blocks * 512
}

// requirePunch skips when the test directory's filesystem cannot punch
// holes: there the invariants below hold for the index but not for
// st_blocks.
func requirePunch(t *testing.T, dir string) {
	t.Helper()
	f, err := os.CreateTemp(dir, "probe")
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if _, err := f.Write(make([]byte, 2*extentAlign)); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Fallocate(int(f.Fd()), fallocPunchHole|fallocKeepSize, 0, extentAlign); err != nil {
		t.Skipf("filesystem cannot punch holes: %v", err)
	}
}

// TestRecoveryFreesUnadoptedBytes: after a crash, a torn final index
// record and a spill cut off before its record are not adopted, a
// removed extent whose punch never ran is freed, and the pack's
// allocated blocks shrink to the adopted extent's.
func TestRecoveryFreesUnadoptedBytes(t *testing.T) {
	const k = 64 << 10
	dir := filepath.Join(t.TempDir(), "vol")
	v, err := NewDiskVolume(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	requirePunch(t, dir)
	for _, id := range []DatasetID{"keep", "gone"} {
		if _, err := v.Materialize(id, k, fillBytes(pattern(id, k))); err != nil {
			t.Fatal(err)
		}
	}
	path, goneOff, _, _ := v.Locate("gone")
	v.Remove("gone")
	if _, err := v.Materialize("torn", k, fillBytes(pattern("torn", k))); err != nil {
		t.Fatal(err)
	}
	// The crash hit between the remove record and the punch: the dead
	// extent's bytes are still allocated.
	pf, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.WriteAt(bytes.Repeat([]byte{1}, k), goneOff); err != nil {
		t.Fatal(err)
	}
	pf.Close()
	// A spill wrote a megabyte but never reached its record.
	sp, err := v.NewSpill("cut")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	// The last record, torn's put, tore.
	logPath := filepath.Join(dir, logName)
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	if got := allocated(t, path); got < 3*k {
		t.Fatalf("set-up: pack holds %d allocated bytes, want >= %d", got, 3*k)
	}

	v2, err := NewDiskVolume(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if ids := v2.IDs(); len(ids) != 1 || ids[0] != "keep" {
		t.Fatalf("recovery adopted %v, want [keep]", ids)
	}
	if got := readAll(t, v2, "keep"); !bytes.Equal(got, pattern("keep", k)) {
		t.Fatal("adopted bytes diverge")
	}
	if got := allocated(t, path); got > k {
		t.Fatalf("pack holds %d allocated bytes after recovery, want <= %d (only the adopted extent)", got, k)
	}
	// New spills append after the adopted extent, never over it.
	if _, err := v2.Materialize("next", k, fillBytes(pattern("next", k))); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, v2, "keep"); !bytes.Equal(got, pattern("keep", k)) {
		t.Fatal("a post-recovery spill overwrote an adopted extent")
	}
}

// TestEvictedEntryKeepsBytesUntilRelease: an entry evicted while a
// handle reads it keeps its bytes — a reader mid-sendfile must never
// read zeros — and the Release of that handle frees them.
func TestEvictedEntryKeepsBytesUntilRelease(t *testing.T) {
	const k = 64 << 10
	dir := filepath.Join(t.TempDir(), "vol")
	v, err := NewDiskVolume(dir, 2*k)
	if err != nil {
		t.Fatal(err)
	}
	requirePunch(t, dir)
	if _, err := v.Materialize("old", k, fillBytes(pattern("old", k))); err != nil {
		t.Fatal(err)
	}
	path, _, _, _ := v.Locate("old")
	h, _, ok := v.Open("old")
	if !ok {
		t.Fatal("miss")
	}
	// Two more entries push "old" out of the quota.
	for _, id := range []DatasetID{"new1", "new2"} {
		if _, err := v.Materialize(id, k, fillBytes(pattern(id, k))); err != nil {
			t.Fatal(err)
		}
	}
	if v.Has("old") {
		t.Fatal("old was not evicted")
	}
	if got := extentBytes(t, h); !bytes.Equal(got, pattern("old", k)) {
		t.Fatal("evicted entry's bytes changed under an open handle")
	}
	if a := allocated(t, path); a < 3*k {
		t.Fatalf("pack holds %d allocated bytes with the handle out, want >= %d", a, 3*k)
	}
	v.Release("old", h)
	if a := allocated(t, path); a > 2*k {
		t.Fatalf("pack holds %d allocated bytes after Release, want <= %d", a, 2*k)
	}
}

// TestEvictionFreesBytes: an entry evicted with no handle out leaves the
// disk at once — its extent is punched out of the pack.
func TestEvictionFreesBytes(t *testing.T) {
	const k = 64 << 10
	dir := filepath.Join(t.TempDir(), "vol")
	v, err := NewDiskVolume(dir, 2*k)
	if err != nil {
		t.Fatal(err)
	}
	requirePunch(t, dir)
	for _, id := range []DatasetID{"old", "new1"} {
		if _, err := v.Materialize(id, k, fillBytes(pattern(id, k))); err != nil {
			t.Fatal(err)
		}
	}
	path, _, _, _ := v.Locate("old")
	if a := allocated(t, path); a < 2*k {
		t.Fatalf("set-up: pack holds %d allocated bytes, want >= %d", a, 2*k)
	}
	if _, err := v.Materialize("new2", k, fillBytes(pattern("new2", k))); err != nil {
		t.Fatal(err)
	}
	if v.Has("old") {
		t.Fatal("old was not evicted")
	}
	if p, _, _, _ := v.Locate("new2"); p != path {
		t.Fatalf("new2 landed in %s, want the evicted entry's pack %s", p, path)
	}
	if a := allocated(t, path); a > 2*k {
		t.Fatalf("pack holds %d allocated bytes after the eviction, want <= %d (the two live extents)", a, 2*k)
	}
}
