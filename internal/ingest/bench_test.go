package ingest

import "testing"

// benchBytes is one ingest_mixed-sized dataset: 1 MiB, 16 default blocks.
const benchBytes = 1 << 20

// benchSink keeps the compiler from discarding a measured result.
var benchSink *Manifest

// BenchmarkHasher measures manifest hashing throughput (MB/s). Each
// byte feeds one SHA-256 state, so it should run at about the
// verifier's rate.
func BenchmarkHasher(b *testing.B) {
	data := testPayload(21, benchBytes)
	b.SetBytes(benchBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewHasher(DefaultBlockSize)
		_, _ = h.Write(data)
		benchSink = h.Manifest("bench", true)
	}
}

// BenchmarkRangeVerifier measures whole-stream verification throughput
// (MB/s) against a manifest, the per-block check pull-through and
// repair run over every peer byte.
func BenchmarkRangeVerifier(b *testing.B) {
	data := testPayload(21, benchBytes)
	h := NewHasher(DefaultBlockSize)
	_, _ = h.Write(data)
	m := h.Manifest("bench", true)
	b.SetBytes(benchBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := m.NewRangeVerifier(0, m.Size)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := v.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
