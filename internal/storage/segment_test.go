package storage

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

func TestSegmentKeyRoundTrip(t *testing.T) {
	cases := []struct {
		id  DatasetID
		seg int64
	}{
		{"ds-001", 0},
		{"ds-001", 17},
		{"a\x00seg\x00weird", 3}, // an ID that embeds the separator still parses (LastIndex)
		{"seg", 9},
	}
	for _, tc := range cases {
		key := SegmentKey(tc.id, tc.seg)
		id, seg, ok := ParseSegmentKey(key)
		if !ok || id != tc.id || seg != tc.seg {
			t.Errorf("ParseSegmentKey(SegmentKey(%q, %d)) = (%q, %d, %v)", tc.id, tc.seg, id, seg, ok)
		}
	}
	for _, plain := range []DatasetID{"ds-001", "", "seg-5", "ds\x00segx"} {
		if _, _, ok := ParseSegmentKey(plain); ok {
			t.Errorf("ParseSegmentKey(%q) parsed a non-segment key", plain)
		}
	}
	// Two different (dataset, segment) pairs can never share a key: the
	// NUL separator cannot appear in HTTP-path dataset IDs.
	if SegmentKey("ds-1", 12) == SegmentKey("ds-112", 2) {
		t.Fatal("segment keys collided across datasets")
	}
}

func TestSegmentMath(t *testing.T) {
	cases := []struct {
		total, segSize, wantCount int64
	}{
		{0, 4, 0}, {-1, 4, 0}, {4, 0, 0},
		{1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {9, 4, 3},
	}
	for _, tc := range cases {
		if got := SegmentCount(tc.total, tc.segSize); got != tc.wantCount {
			t.Errorf("SegmentCount(%d, %d) = %d, want %d", tc.total, tc.segSize, got, tc.wantCount)
		}
	}
	// 9 bytes in 4-byte segments: 4, 4, 1.
	for i, want := range []int64{4, 4, 1} {
		if got := SegmentExtent(9, 4, int64(i)); got != want {
			t.Errorf("SegmentExtent(9, 4, %d) = %d, want %d", i, got, want)
		}
	}
	if got := SegmentExtent(9, 4, 3); got != 0 {
		t.Errorf("SegmentExtent out of range = %d, want 0", got)
	}
	if got := SegmentExtent(9, 4, -1); got != 0 {
		t.Errorf("SegmentExtent(-1) = %d, want 0", got)
	}
	// Extents always sum back to the total.
	var sum int64
	for i := int64(0); i < SegmentCount(100, 7); i++ {
		sum += SegmentExtent(100, 7, i)
	}
	if sum != 100 {
		t.Errorf("segment extents sum to %d, want 100", sum)
	}
}

// fillSeq writes n bytes of a recognizable per-segment pattern.
func fillSeq(seg int64, n int64) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(bytes.Repeat([]byte{byte('a' + seg%26)}, int(n)))
		return err
	}
}

func TestSegmentPartialResidency(t *testing.T) {
	const (
		segSize = int64(4 << 10)
		segs    = int64(8)
	)
	// Quota holds only half the dataset: materializing all segments in
	// order must evict the oldest, leaving the tail resident.
	vol, err := NewDiskVolume(t.TempDir(), 4*segSize)
	if err != nil {
		t.Fatal(err)
	}
	const id = DatasetID("big")
	for i := int64(0); i < segs; i++ {
		did, err := vol.Materialize(SegmentKey(id, i), segSize, fillSeq(i, segSize))
		if err != nil {
			t.Fatalf("materialize segment %d: %v", i, err)
		}
		if !did {
			t.Fatalf("segment %d was already resident", i)
		}
	}
	if got := vol.ResidentSegments(id, segs); got != 4 {
		t.Fatalf("resident segments = %d, want 4 (quota holds half the dataset)", got)
	}
	if vol.HasSegment(id, 0) || vol.HasSegment(id, 3) {
		t.Fatal("cold head segments survived quota eviction")
	}
	for i := int64(4); i < segs; i++ {
		if !vol.HasSegment(id, i) {
			t.Fatalf("hot tail segment %d missing", i)
		}
	}
	// An evicted segment re-materializes on demand, evicting LRU again.
	if did, err := vol.Materialize(SegmentKey(id, 0), segSize, fillSeq(0, segSize)); err != nil || !did {
		t.Fatalf("re-materialize segment 0: did=%v err=%v", did, err)
	}
	if !vol.HasSegment(id, 0) {
		t.Fatal("segment 0 not resident after re-materialization")
	}
	if got := vol.ResidentSegments(id, segs); got != 4 {
		t.Fatalf("resident segments after re-materialize = %d, want 4", got)
	}
	// Whole-dataset lookups never see segment entries.
	if vol.Has(id) {
		t.Fatal("whole-dataset Has(id) reported true for a segmented dataset")
	}
}

func TestOpenSegmentFreshAndPooled(t *testing.T) {
	vol, err := NewDiskVolume(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const id = DatasetID("ds")
	if _, err := vol.Materialize(SegmentKey(id, 2), 64, fillSeq(2, 64)); err != nil {
		t.Fatal(err)
	}
	f, size, fresh, ok := vol.OpenSegment(id, 2)
	if !ok || size != 64 {
		t.Fatalf("OpenSegment = (size %d, ok %v), want (64, true)", size, ok)
	}
	if !fresh {
		t.Fatal("first open of a segment must be a fresh descriptor")
	}
	if got := extentBytes(t, f); !bytes.Equal(got, bytes.Repeat([]byte{'c'}, 64)) {
		t.Fatalf("segment bytes = %q", got)
	}
	vol.ReleaseSegment(id, 2, f)
	f, _, fresh, ok = vol.OpenSegment(id, 2)
	if !ok {
		t.Fatal("second OpenSegment failed")
	}
	if fresh {
		t.Fatal("pooled descriptor reported fresh: sequential advice would be re-applied every serve")
	}
	vol.ReleaseSegment(id, 2, f)
}

func TestSegmentSpillAdoption(t *testing.T) {
	vol, err := NewDiskVolume(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const id = DatasetID("pulled")
	sp, err := vol.NewSegmentSpill(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 512)
	if _, err := sp.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := sp.Commit(int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if !vol.HasSegment(id, 1) || vol.HasSegment(id, 0) {
		t.Fatal("spill committed the wrong segment entry")
	}
	// Abort leaves nothing behind.
	sp, err = vol.NewSegmentSpill(id, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write(payload[:100]); err != nil {
		t.Fatal(err)
	}
	sp.Abort()
	if vol.HasSegment(id, 3) {
		t.Fatal("aborted segment spill became resident")
	}
	if res := vol.Reserved(); len(res) != 0 {
		t.Fatalf("aborted spill left reserved extents: %v", res)
	}
}

func TestFadviseOnRealFile(t *testing.T) {
	// The advice calls must never error a serve: they return a boolean
	// (for counters) and are otherwise fire-and-forget. On Linux both
	// should succeed against a real descriptor; elsewhere the stubs
	// return false. Either way this must not panic or corrupt the file.
	vol, err := NewDiskVolume(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const id = DatasetID("adv")
	if _, err := vol.Materialize(SegmentKey(id, 0), 1024, fillSeq(0, 1024)); err != nil {
		t.Fatal(err)
	}
	f, _, _, ok := vol.OpenSegment(id, 0)
	if !ok {
		t.Fatal("open")
	}
	seq := FadviseSequential(f)
	drop := FadviseDontNeed(f)
	t.Logf("fadvise sequential=%v dontneed=%v", seq, drop)
	if got := extentBytes(t, f); len(got) != 1024 {
		t.Fatalf("read after advice: %d bytes", len(got))
	}
	vol.ReleaseSegment(id, 0, f)
}

func BenchmarkOpenSegmentWarm(b *testing.B) {
	vol, err := NewDiskVolume(b.TempDir(), 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	const id = DatasetID("warm")
	for i := int64(0); i < 16; i++ {
		if _, err := vol.Materialize(SegmentKey(id, i), 4096, fillSeq(i, 4096)); err != nil {
			b.Fatal(err)
		}
		// Prime the FD pool so the loop measures the pooled path.
		if f, _, _, ok := vol.OpenSegment(id, i); ok {
			vol.ReleaseSegment(id, i, f)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := int64(i % 16)
		f, _, _, ok := vol.OpenSegment(id, seg)
		if !ok {
			b.Fatal("open failed")
		}
		vol.ReleaseSegment(id, seg, f)
	}
}

func ExampleSegmentKey() {
	key := SegmentKey("ds-007", 3)
	id, seg, ok := ParseSegmentKey(key)
	fmt.Println(id, seg, ok)
	// Output: ds-007 3 true
}
