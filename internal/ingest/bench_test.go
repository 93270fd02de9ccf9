package ingest

import (
	"bytes"
	"testing"
)

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

// BenchmarkHashAt measures block-parallel manifest hashing throughput
// (MB/s) over a 16 MiB input — 256 blocks, enough to keep every worker
// busy. Run it at -cpu 1,2 beside BenchmarkHasher: each block costs
// one extra copy (ReadAt into the worker's buffer) over the streaming
// hasher, and the rate should scale with the cores.
func BenchmarkHashAt(b *testing.B) {
	const size = 16 << 20
	src := bytes.NewReader(testPayload(22, size))
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := HashAt(src, size, "bench", true)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = m
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
