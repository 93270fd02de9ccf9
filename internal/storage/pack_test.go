package storage

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestStripedSpillWithHoleRejected: positioned stripes that leave a gap
// must not commit — the gap would publish as zeros. The byte count and
// the pack's length both look complete; only coverage tells.
func TestStripedSpillWithHoleRejected(t *testing.T) {
	v := newVolume(t, 1<<20)
	const k = 64 << 10
	sp, err := v.NewSpill("holey")
	if err != nil {
		t.Fatal(err)
	}
	stripe := bytes.Repeat([]byte{7}, k)
	if _, err := sp.WriteAt(stripe, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.WriteAt(stripe, 2*k); err != nil {
		t.Fatal(err)
	}
	if err := sp.CommitVerified(3*k, nil, false); err == nil {
		t.Fatal("a spill with an unwritten middle stripe committed")
	}
	if v.Has("holey") || len(v.Reserved()) != 0 {
		t.Fatalf("rejected spill left state: has=%v reserved=%v", v.Has("holey"), v.Reserved())
	}

	// The same stripes with the middle one written commit, in any order.
	sp, err = v.NewSpill("whole")
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{2 * k, 0, k} {
		if _, err := sp.WriteAt(stripe, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.CommitVerified(3*k, nil, false); err != nil {
		t.Fatal(err)
	}
	// Bytes written past want are not the replica either.
	sp, err = v.NewSpill("long")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.WriteAt(stripe, 0); err != nil {
		t.Fatal(err)
	}
	if err := sp.CommitVerified(k-1, nil, false); err == nil {
		t.Fatal("a spill longer than want committed")
	}
}

// TestSpillWritePastBoundPoisons: a spill may write at most the volume's
// quota; Write or WriteAt past it fails, and the spill can no longer
// commit.
func TestSpillWritePastBoundPoisons(t *testing.T) {
	const quota = 64 << 10
	v := newVolume(t, quota)

	sp, err := v.NewSpill("seq")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write(make([]byte, quota-10)); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write(make([]byte, 20)); err == nil {
		t.Fatal("sequential write past the bound accepted")
	}
	if _, err := sp.Write(make([]byte, 1)); err == nil {
		t.Fatal("write after a bound failure accepted: spill not poisoned")
	}
	if err := sp.Commit(quota - 10); err == nil {
		t.Fatal("poisoned spill committed")
	}

	sp, err = v.NewSpill("striped")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.WriteAt(make([]byte, 20), quota-10); err == nil {
		t.Fatal("positioned write past the bound accepted")
	}
	if _, err := sp.WriteAt(make([]byte, 10), 0); err == nil {
		t.Fatal("WriteAt after a bound failure accepted: spill not poisoned")
	}
	if err := sp.CommitVerified(10, nil, false); err == nil {
		t.Fatal("poisoned striped spill committed")
	}
	if v.Len() != 0 || len(v.Reserved()) != 0 {
		t.Fatalf("poisoned spills left state: len=%d reserved=%v", v.Len(), v.Reserved())
	}
}

// TestSpillWriteAfterFinishFails: once a spill is committed or
// aborted, a straggling write fails instead of landing in the committed
// extent or in a pack the next spill takes.
func TestSpillWriteAfterFinishFails(t *testing.T) {
	v := newVolume(t, 1<<20)
	want := bytes.Repeat([]byte{1}, 4096)
	sp, err := v.NewSpill("done")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := sp.Commit(int64(len(want))); err != nil {
		t.Fatal(err)
	}
	if n, err := sp.WriteAt(bytes.Repeat([]byte{2}, 4096), 0); err == nil || n != 0 {
		t.Fatalf("write after commit: n=%d err=%v, want a failure", n, err)
	}
	if got := readAll(t, v, "done"); !bytes.Equal(got, want) {
		t.Fatal("a write after commit changed the committed bytes")
	}

	// Writers racing a commit: each write lands before the commit reads
	// the bytes back, or fails.
	sp, err = v.NewSpill("raced")
	if err != nil {
		t.Fatal(err)
	}
	want = bytes.Repeat([]byte{1}, 512<<10)
	other := bytes.Repeat([]byte{3}, len(want))
	if _, err := sp.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i++ {
				b := want
				if i%2 == 1 {
					b = other
				}
				if _, err := sp.WriteAt(b, 0); err != nil {
					return
				}
			}
		}()
	}
	var seen []byte
	err = sp.CommitVerified(int64(len(want)), func(r io.Reader) (err error) {
		seen, err = io.ReadAll(r)
		return err
	}, false)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, v, "raced"); !bytes.Equal(got, seen) {
		t.Fatal("a write landed after the commit read its bytes")
	}

	sp, err = v.NewSpill("gone")
	if err != nil {
		t.Fatal(err)
	}
	sp.Abort()
	if _, err := sp.Write(want); err == nil {
		t.Fatal("write after abort accepted")
	}
	if len(v.Reserved()) != 0 {
		t.Fatalf("aborted spill left reserved extents: %v", v.Reserved())
	}
}

// TestRolledDeadPackUnlinked: a pack whose tail reaches the roll size
// takes no more spills, and once its last extent dies its file goes.
func TestRolledDeadPackUnlinked(t *testing.T) {
	v := newVolume(t, 2*packRoll)
	sp, err := v.NewSpill("big")
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for n := 0; n < packRoll; n += len(chunk) {
		if _, err := sp.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Commit(packRoll); err != nil {
		t.Fatal(err)
	}
	rolled, _, _, _ := v.Locate("big")
	if _, err := v.Materialize("next", 100, fillBytes(pattern("next", 100))); err != nil {
		t.Fatal(err)
	}
	if path, _, _, _ := v.Locate("next"); path == rolled {
		t.Fatal("a rolled pack took another spill")
	}
	// A handle out keeps the pack; its Release lets it go.
	h, _, ok := v.Open("big")
	if !ok {
		t.Fatal("miss")
	}
	v.Remove("big")
	if _, err := os.Stat(rolled); err != nil {
		t.Fatalf("pack unlinked under an open handle: %v", err)
	}
	v.Release("big", h)
	if _, err := os.Stat(rolled); !os.IsNotExist(err) {
		t.Fatalf("rolled, fully dead pack still on disk: %v", err)
	}
	if got := readAll(t, v, "next"); !bytes.Equal(got, pattern("next", 100)) {
		t.Fatal("surviving entry diverges")
	}
}

// TestMaterializationsShareFewPacks: 2,048 materializations from four
// concurrent fillers leave a handful of files — one pack per spill in
// flight at peak plus the log — not one file per entry.
func TestMaterializationsShareFewPacks(t *testing.T) {
	const (
		workers = 4
		entries = 2048
		size    = 4 << 10
	)
	dir := filepath.Join(t.TempDir(), "vol")
	v, err := NewDiskVolume(dir, entries*size)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < entries; i += workers {
				id := DatasetID(fmt.Sprintf("ds-%04d", i))
				if _, err := v.Materialize(id, size, fillBytes(pattern(id, size))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if v.Len() != entries {
		t.Fatalf("volume holds %d entries, want %d", v.Len(), entries)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > workers+1 {
		var names []string
		for _, f := range files {
			names = append(names, f.Name())
		}
		t.Fatalf("%d materializations left %d files, want <= %d: %v", entries, len(files), workers+1, names)
	}
	for _, id := range []DatasetID{"ds-0000", "ds-1023", "ds-2047"} {
		if got := readAll(t, v, id); !bytes.Equal(got, pattern(id, size)) {
			t.Fatalf("%s diverges", id)
		}
	}
}

// TestRecoveryAdoptsOnlyExtentsInsideTheirPack: a record whose extent
// runs past its pack's end (the pack lost its tail) is not adopted, and
// the entries before it are.
func TestRecoveryAdoptsOnlyExtentsInsideTheirPack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "vol")
	v, err := NewDiskVolume(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []DatasetID{"ds-a", "ds-b"} {
		if _, err := v.Materialize(id, 5000, fillBytes(pattern(id, 5000))); err != nil {
			t.Fatal(err)
		}
	}
	path, off, _, _ := v.Locate("ds-b")
	if err := os.Truncate(path, off+100); err != nil {
		t.Fatal(err)
	}
	v2, err := NewDiskVolume(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Has("ds-a") || v2.Has("ds-b") {
		t.Fatalf("adopted a=%v b=%v, want only a", v2.Has("ds-a"), v2.Has("ds-b"))
	}
	if got := readAll(t, v2, "ds-a"); !bytes.Equal(got, pattern("ds-a", 5000)) {
		t.Fatal("adopted bytes diverge")
	}
	// Recovery compacted the log: a third open replays the same state.
	v3, err := NewDiskVolume(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ids := v3.IDs(); len(ids) != 1 || ids[0] != "ds-a" {
		t.Fatalf("after compaction the log replays %v, want [ds-a]", ids)
	}
}

// TestLegacyLayoutRefused: a directory holding the one-file-per-replica
// data/ tree is refused with an error naming it; it is not read.
func TestLegacyLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := NewDiskVolume(dir, 1<<20)
	if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, "data")) {
		t.Fatalf("err = %v, want a refusal naming %s", err, filepath.Join(dir, "data"))
	}
}

// TestHandleAddressesItsExtent: a handle reads its own extent and never
// its pack neighbours', from its start and from an offset through
// FileAt.
func TestHandleAddressesItsExtent(t *testing.T) {
	v := newVolume(t, 1<<20)
	for _, id := range []DatasetID{"ds-a", "ds-b", "ds-c"} {
		if _, err := v.Materialize(id, 3000, fillBytes(pattern(id, 3000))); err != nil {
			t.Fatal(err)
		}
	}
	want := pattern("ds-b", 3000)
	if got := readAll(t, v, "ds-b"); !bytes.Equal(got, want) {
		t.Fatal("whole extent diverges")
	}
	h, size, ok := v.Open("ds-b")
	if !ok || size != 3000 || h.Size() != 3000 {
		t.Fatalf("Open = (%d, %v)", size, ok)
	}
	defer v.Release("ds-b", h)
	f, err := h.FileAt(1000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(io.LimitReader(f, 2000))
	if err != nil || !bytes.Equal(got, want[1000:]) {
		t.Fatalf("FileAt window diverges (err %v)", err)
	}
}

// TestUnloggedRemovalKeepsBytes: a removal whose record cannot be logged
// leaves the entry's put record live, so replay adopts the entry again.
// Its bytes must survive — also the Release of a handle that was out
// during the removal — or the restarted volume would serve a hole as the
// dataset.
func TestUnloggedRemovalKeepsBytes(t *testing.T) {
	const k = 64 << 10
	dir := filepath.Join(t.TempDir(), "vol")
	v, err := NewDiskVolume(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []DatasetID{"read", "idle"} {
		if _, err := v.Materialize(id, k, fillBytes(pattern(id, k))); err != nil {
			t.Fatal(err)
		}
	}
	h, _, ok := v.Open("read")
	if !ok {
		t.Fatal("miss")
	}
	// Every log append fails from here on.
	if err := v.log.Close(); err != nil {
		t.Fatal(err)
	}
	v.Remove("read")
	v.Remove("idle")
	if v.Has("read") || v.Has("idle") {
		t.Fatal("removed entries still indexed")
	}
	v.Release("read", h)

	v2, err := NewDiskVolume(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []DatasetID{"read", "idle"} {
		if got := readAll(t, v2, id); !bytes.Equal(got, pattern(id, k)) {
			t.Fatalf("%s: the re-adopted entry's bytes diverge", id)
		}
	}
}

// BenchmarkMaterializeSmall materializes 2,048 64 KiB replicas into a
// fresh volume per iteration — small_read's set-up shape — and reports
// the cost per replica.
func BenchmarkMaterializeSmall(b *testing.B) {
	const (
		entries = 2048
		size    = 64 << 10
	)
	data := pattern("x", size)
	ids := make([]DatasetID, entries)
	for i := range ids {
		ids[i] = DatasetID(fmt.Sprintf("ds-%04d", i))
	}
	b.SetBytes(entries * size)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		v, err := NewDiskVolume(filepath.Join(b.TempDir(), fmt.Sprint(i)), 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, id := range ids {
			if _, err := v.Materialize(id, size, fillBytes(data)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*entries), "us/replica")
}

// BenchmarkSpillCommit spills and commits 1 MiB per iteration, then
// removes it — an upload's storage cost without the network.
func BenchmarkSpillCommit(b *testing.B) {
	const size = 1 << 20
	v, err := NewDiskVolume(b.TempDir(), 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	data := pattern("x", size)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := v.NewSpill("up")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sp.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := sp.Commit(size); err != nil {
			b.Fatal(err)
		}
		v.Remove("up")
	}
}

// TestPinSurvivesReplay: the pin is part of the put record, so an entry
// committed pinned — or pinned later by a duplicate pinned commit over
// an unpinned copy — comes back pinned when the volume is reopened, and
// again after the reopen's compaction. Quota pressure from unpinned
// spills after the restart evicts around it, never it.
func TestPinSurvivesReplay(t *testing.T) {
	const quota, size = 256 << 10, 64 << 10
	dir := filepath.Join(t.TempDir(), "vol")
	v, err := NewDiskVolume(dir, quota)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(v *DiskVolume, id DatasetID, pin bool) {
		t.Helper()
		sp, err := v.NewSpill(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.Write(pattern(id, size)); err != nil {
			t.Fatal(err)
		}
		if err := sp.CommitVerified(size, nil, pin); err != nil {
			t.Fatal(err)
		}
	}
	commit(v, "pinned", true)
	commit(v, "taken", false)
	commit(v, "taken", true) // a duplicate: takes over only the pin
	for reopen := 0; reopen < 2; reopen++ {
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		if v, err = NewDiskVolume(dir, quota); err != nil {
			t.Fatal(err)
		}
	}
	defer v.Close()
	for i := 0; i < 8; i++ { // twice the quota of unpinned spills
		commit(v, DatasetID(fmt.Sprintf("filler-%d", i)), false)
	}
	for _, id := range []DatasetID{"pinned", "taken"} {
		if !v.Has(id) {
			t.Fatalf("%s was evicted after a restart: its pin did not survive replay", id)
		}
		if got := readAll(t, v, id); !bytes.Equal(got, pattern(id, size)) {
			t.Fatalf("%s diverges after a restart", id)
		}
	}
}
