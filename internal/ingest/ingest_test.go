package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// testPayload builds deterministic pseudo-random content.
func testPayload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// manifestOf hashes a payload through the streaming Hasher in random
// chunk sizes, so block-boundary handling is exercised.
func manifestOf(t *testing.T, id string, data []byte, blockSize int64) *Manifest {
	t.Helper()
	h := NewHasher(blockSize)
	rng := rand.New(rand.NewSource(int64(len(data))))
	for off := 0; off < len(data); {
		n := 1 + rng.Intn(3*int(blockSize))
		if off+n > len(data) {
			n = len(data) - off
		}
		if _, err := h.Write(data[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	return h.Manifest("ds", true)
}

// referenceDigests computes a manifest's block digests and dataset
// digest with one-shot stdlib calls, independent of the package's
// streaming hasher and roll-up helper.
func referenceDigests(data []byte, blockSize int) (blocks [][sha256.Size]byte, digest [sha256.Size]byte) {
	var concat []byte
	for lo := 0; lo < len(data); lo += blockSize {
		b := sha256.Sum256(data[lo:min(lo+blockSize, len(data))])
		blocks = append(blocks, b)
		concat = append(concat, b[:]...)
	}
	return blocks, sha256.Sum256(concat)
}

func TestHasherMatchesReference(t *testing.T) {
	data := testPayload(1, 3*1024+17)
	m := manifestOf(t, "ds", data, 1024)
	if m.Size != int64(len(data)) {
		t.Fatalf("size = %d, want %d", m.Size, len(data))
	}
	blocks, digest := referenceDigests(data, 1024)
	if want := BlockCount(m.Size, 1024); int64(len(m.Blocks)) != want || len(blocks) != int(want) {
		t.Fatalf("blocks = %d (reference %d), want %d", len(m.Blocks), len(blocks), want)
	}
	for i := range m.Blocks {
		if m.Blocks[i] != blocks[i] {
			t.Fatalf("block %d digest diverges", i)
		}
	}
	if m.Digest != digest {
		t.Fatal("dataset digest is not SHA-256 of the concatenated block digests")
	}
	if m.Digest == sha256.Sum256(data) {
		t.Fatal("dataset digest is the plain SHA-256 of the bytes")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	data := testPayload(2, 5000)
	m := manifestOf(t, "ds", data, 1024)
	enc, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := EncodeManifest(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("re-encode diverges")
	}
	if got.Digest != m.Digest || got.Size != m.Size || len(got.Blocks) != len(m.Blocks) {
		t.Fatal("decoded manifest diverges")
	}
}

func TestDecodeManifestRejectsHostileInputs(t *testing.T) {
	data := testPayload(3, 2048)
	m := manifestOf(t, "ds", data, 1024)
	good, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"trailing garbage", func(b []byte) []byte { return append(b, " {}"...) }},
		{"uppercase digest", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"sha256":"`+m.DigestHex()),
				[]byte(`"sha256":"`+string(bytes.ToUpper([]byte(m.DigestHex())))), 1)
		}},
		{"wrong block count", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"size":2048`), []byte(`"size":9048`), 1)
		}},
		{"negative size", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"size":2048`), []byte(`"size":-1`), 1)
		}},
		{"zero block size", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"block_size":1024`), []byte(`"block_size":0`), 1)
		}},
		{"unknown field", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`{"dataset"`), []byte(`{"evil":1,"dataset"`), 1)
		}},
		{"short digest", func(b []byte) []byte {
			return bytes.Replace(b, []byte(m.DigestHex()), []byte(m.DigestHex()[:10]), 1)
		}},
		{"digest not the roll-up", func(b []byte) []byte {
			return bytes.Replace(b, []byte(m.DigestHex()), []byte(plainDigestHex(data)), 1)
		}},
	}
	for _, tc := range cases {
		mutated := tc.mutate(append([]byte(nil), good...))
		if bytes.Equal(mutated, good) {
			t.Fatalf("%s: mutation did not apply", tc.name)
		}
		if _, err := DecodeManifest(mutated); err == nil {
			t.Fatalf("%s: hostile manifest accepted", tc.name)
		}
	}
}

// plainDigestHex is the plain SHA-256 of the bytes in lowercase hex: a
// well-formed digest that is not the roll-up of any manifest's blocks.
func plainDigestHex(data []byte) string {
	d := sha256.Sum256(data)
	return hex.EncodeToString(d[:])
}

// withPlainDigest returns a copy of m whose Digest is the plain SHA-256
// of the bytes instead of the roll-up of its block digests.
func withPlainDigest(m *Manifest, data []byte) *Manifest {
	c := *m
	c.Digest = sha256.Sum256(data)
	return &c
}

func TestWholeVerifier(t *testing.T) {
	data := testPayload(4, 4096+100)
	m := manifestOf(t, "ds", data, 1024)

	v, err := m.NewVerifier()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// One flipped byte must fail the block that contains it, the short
	// last block included.
	for _, at := range []int{2000, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[at] ^= 0xff
		v2, _ := m.NewVerifier()
		if _, werr := v2.Write(bad); !errors.Is(werr, ErrDigestMismatch) {
			t.Fatalf("byte %d flipped: Write = %v, want ErrDigestMismatch", at, werr)
		}
	}

	// A manifest whose digest is not the roll-up of its blocks never
	// yields a whole-stream verifier.
	if _, err := withPlainDigest(m, data).NewVerifier(); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("plain-digest manifest: NewVerifier = %v, want ErrDigestMismatch", err)
	}

	// Truncation must fail Close.
	v3, _ := m.NewVerifier()
	if _, err := v3.Write(data[:len(data)-1]); err != nil {
		t.Fatal(err)
	}
	if err := v3.Close(); err == nil {
		t.Fatal("truncated stream verified")
	}

	// Surplus bytes must fail Write.
	v4, _ := m.NewVerifier()
	if _, err := v4.Write(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("surplus byte verified")
	}
}

func TestRangeVerifierAlignment(t *testing.T) {
	data := testPayload(5, 4096+100)
	m := manifestOf(t, "ds", data, 1024)

	// Aligned interior range verifies.
	v, err := m.NewRangeVerifier(1024, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(data[1024:3072]); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// Tail range ending at Size (short last block) verifies.
	v2, err := m.NewRangeVerifier(4096, m.Size-4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Write(data[4096:]); err != nil {
		t.Fatal(err)
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}

	// Misaligned ranges are rejected at construction.
	if _, err := m.NewRangeVerifier(100, 1024); err == nil {
		t.Fatal("misaligned offset accepted")
	}
	if _, err := m.NewRangeVerifier(0, 100); err == nil {
		t.Fatal("mid-block range end accepted")
	}
	if _, err := m.NewRangeVerifier(0, m.Size+1); err == nil {
		t.Fatal("over-long range accepted")
	}
}

func TestStoreSemantics(t *testing.T) {
	aData := testPayload(6, 2048)
	a := manifestOf(t, "ds", aData, 1024)
	b := manifestOf(t, "ds", testPayload(7, 2048), 1024)
	s := NewStore()
	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(a); err != nil {
		t.Fatalf("idempotent re-put failed: %v", err)
	}
	if err := s.Put(b); err == nil {
		t.Fatal("conflicting manifest accepted")
	}
	if err := s.Put(withPlainDigest(a, aData)); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("plain-digest manifest: Put = %v, want ErrDigestMismatch", err)
	}
	got, ok := s.Get("ds")
	if !ok || got.Digest != a.Digest {
		t.Fatal("stored manifest not returned")
	}
	if m, ok := s.Opaque("ds"); !ok || m != got {
		t.Fatal("the opaque query disagrees with Get")
	}
	if _, ok := s.Get("other"); ok {
		t.Fatal("a dataset never put has a manifest")
	}
	s.Delete("ds")
	if _, ok := s.Get("ds"); ok {
		t.Fatal("deleted manifest still present")
	}
	if _, ok := s.Opaque("ds"); ok {
		t.Fatal("deleted manifest still opaque")
	}
}

// TestStoreDerivation: a derived entry runs its derivation once, on
// first use, however many callers race to it; the opaque query never
// runs it; and Put over it compares against the derived manifest.
func TestStoreDerivation(t *testing.T) {
	const id = "gen"
	data := testPayload(8, 100<<10)
	want, err := HashAt(bytes.NewReader(data), int64(len(data)), id, false)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	derive := func() (*Manifest, error) {
		runs.Add(1)
		return HashAt(bytes.NewReader(data), int64(len(data)), id, false)
	}
	s := NewStore()
	if err := s.Derive(id, derive); err != nil {
		t.Fatal(err)
	}
	if err := s.Derive(id, derive); err == nil {
		t.Fatal("second derivation for one dataset accepted")
	}
	if _, ok := s.Opaque(id); ok || runs.Load() != 0 {
		t.Fatalf("opaque query: ok=%v after %d derivations, want false after 0", ok, runs.Load())
	}

	const callers = 16
	got := make([]*Manifest, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], _ = s.Get(id)
		}()
	}
	close(start)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d concurrent Gets derived %d times, want once", callers, n)
	}
	for i, m := range got {
		if m != got[0] || m == nil {
			t.Fatalf("caller %d got manifest %p, caller 0 got %p", i, m, got[0])
		}
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatal("derived manifest diverges from the hash of the same bytes")
	}

	// Put over a derived entry derives first (a fresh store) and then
	// compares: the identical manifest is a no-op, another one fails.
	runs.Store(0)
	s = NewStore()
	if err := s.Derive(id, derive); err != nil {
		t.Fatal(err)
	}
	other, err := HashAt(bytes.NewReader(testPayload(9, len(data))), int64(len(data)), id, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(other); err == nil {
		t.Fatal("a different manifest replaced a derived one")
	}
	if err := s.Put(want); err != nil {
		t.Fatalf("identical manifest over a derived one: %v", err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("Puts derived %d times, want once", n)
	}
	if m, ok := s.Get(id); !ok || m.Digest != want.Digest {
		t.Fatal("Put changed the derived manifest")
	}
	s.Delete(id)
	if _, ok := s.Get(id); ok || runs.Load() != 1 {
		t.Fatal("deleted derived entry still present")
	}

	// The opaque query answers for an upload's manifest.
	up := manifestOf(t, "ds", data, 1024)
	if err := s.Put(up); err != nil {
		t.Fatal(err)
	}
	if m, ok := s.Opaque("ds"); !ok || m != up {
		t.Fatal("opaque query missed an uploaded manifest")
	}
}
