package ingest

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"scdn/internal/storage"
)

// FuzzManifest hammers the manifest decoder with hostile bytes: any
// input the decoder accepts must survive an encode/decode round trip
// byte-identically, must satisfy Validate, and must carry a dataset
// digest that is the roll-up of its block digests — a manifest can
// never decode into a state that describes an impossible dataset
// (negative sizes, inconsistent block counts, malformed digests) or
// content-addresses anything but its own blocks.
func FuzzManifest(f *testing.F) {
	seed := func(id string, data []byte, blockSize int64) {
		h := NewHasher(blockSize)
		_, _ = h.Write(data)
		m := h.Manifest(storage.DatasetID("ds-"+id), true)
		if enc, err := EncodeManifest(m); err == nil {
			f.Add(enc)
		}
	}
	seed("tiny", []byte("x"), 1024)
	seed("even", bytes.Repeat([]byte("abcd"), 512), 512)
	seed("ragged", bytes.Repeat([]byte("scdn"), 700), 1024)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"dataset":"d","size":1,"block_size":1,"opaque":true,` +
		`"sha256":"zz","blocks":[]}`))
	f.Add([]byte(`{"dataset":"d","size":9223372036854775807,"block_size":1,` +
		`"opaque":false,"sha256":"` + string(bytes.Repeat([]byte("a"), 64)) + `","blocks":[]}`))
	// Well-formed hex, right block list, but the digest is the plain
	// SHA-256 of the bytes rather than the roll-up.
	f.Add([]byte(`{"dataset":"d","size":1,"block_size":1024,"opaque":true,` +
		`"sha256":"` + plainDigestHex([]byte("x")) + `","blocks":["` + plainDigestHex([]byte("x")) + `"]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("decoded manifest fails validation: %v", verr)
		}
		var concat []byte
		for _, b := range m.Blocks {
			concat = append(concat, b[:]...)
		}
		if m.Digest != sha256.Sum256(concat) {
			t.Fatalf("accepted manifest's digest %x is not the roll-up of its blocks", m.Digest)
		}
		enc, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		m2, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		enc2, err := EncodeManifest(m2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip unstable:\n%s\n%s", enc, enc2)
		}
	})
}
