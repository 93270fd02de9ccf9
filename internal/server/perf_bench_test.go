package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scdn/internal/ingest"
	"scdn/internal/storage"
)

// singleMutexCatalog is the pre-sharding baseline: the same catalog
// behind one mutex, so every call serializes. It exists only so the
// resolve benchmark can measure the sharded catalog against the design
// it replaced — the acceptance bar is ≥ 2× parallel resolve throughput
// at GOMAXPROCS ≥ 4.
type singleMutexCatalog struct {
	mu  sync.Mutex
	cat *Catalog
}

func (c *singleMutexCatalog) Resolve(id storage.DatasetID, requester storage.NodeID) (Replica, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cat.Resolve(id, requester)
}

func (c *singleMutexCatalog) Datasets() ([]storage.DatasetID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cat.Datasets()
}

// benchResolver abstracts the two catalogs under test.
type benchResolver interface {
	Resolve(id storage.DatasetID, requester storage.NodeID) (Replica, bool, error)
	Datasets() ([]storage.DatasetID, error)
}

const (
	benchMembers  = 8
	benchDatasets = 2048
)

func benchRegistry(b *testing.B) (*Registry, []storage.DatasetID) {
	b.Helper()
	reg := NewRegistry()
	for i := 0; i < benchMembers; i++ {
		reg.Register(Member{Node: storage.NodeID(i + 1), Site: i, Online: true})
	}
	var ids []storage.DatasetID
	for d := 0; d < benchDatasets; d++ {
		ids = append(ids, storage.DatasetID(fmt.Sprintf("bench-%04d", d)))
	}
	return reg, ids
}

func registerAll(b *testing.B, ids []storage.DatasetID, register func(storage.DatasetID, storage.NodeID, int64) error) {
	b.Helper()
	for d, id := range ids {
		if err := register(id, storage.NodeID(d%benchMembers+1), 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func benchResolveParallel(b *testing.B, cat benchResolver, ids []storage.DatasetID, withScans bool) {
	stop := make(chan struct{})
	var scanWG sync.WaitGroup
	if withScans {
		// The metrics exporter and maintenance loop periodically walk the
		// whole catalog in production. Behind one mutex each walk stalls
		// every resolve for the full scan; with shards a walk only blocks
		// 1/ShardCount of the key space at a time.
		scanWG.Add(1)
		go func() {
			defer scanWG.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				if _, err := cat.Datasets(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	var cursor atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine walks its own stride of datasets so resolves
		// spread across shards, like independent clients would.
		i := cursor.Add(1)
		for pb.Next() {
			id := ids[i%uint64(len(ids))]
			if _, ok, err := cat.Resolve(id, storage.NodeID(i%benchMembers+1)); err != nil || !ok {
				b.Fatalf("resolve %s: ok=%v err=%v", id, ok, err)
			}
			i += 7 // coprime stride: all datasets visited, adjacent goroutines diverge
		}
	})
	b.StopTimer()
	close(stop)
	scanWG.Wait()
}

func benchBothCatalogs(b *testing.B, withScans bool) {
	b.Run("sharded", func(b *testing.B) {
		reg, ids := benchRegistry(b)
		cat := NewCatalog(reg)
		registerAll(b, ids, cat.RegisterDataset)
		benchResolveParallel(b, cat, ids, withScans)
	})
	b.Run("single-mutex", func(b *testing.B) {
		reg, ids := benchRegistry(b)
		cat := &singleMutexCatalog{cat: NewCatalog(reg)}
		registerAll(b, ids, cat.cat.RegisterDataset)
		benchResolveParallel(b, cat, ids, withScans)
	})
}

// BenchmarkCatalogResolveParallel compares parallel resolve throughput of
// the sharded catalog against the single-mutex baseline under the
// delivery plane's real concurrent load: resolves racing the full-catalog
// scans that the metrics exporter and maintenance sweep run continuously.
// Run with -cpu 4 (or higher); the acceptance criterion is sharded ≥ 2×
// single-mutex ops/sec.
func BenchmarkCatalogResolveParallel(b *testing.B) {
	benchBothCatalogs(b, true)
}

// BenchmarkCatalogResolveNoScan is the same resolve loop without the
// background scans — the uncontended floor of both designs.
func BenchmarkCatalogResolveNoScan(b *testing.B) {
	benchBothCatalogs(b, false)
}

// BenchmarkCatalogReadsParallel measures the RLock read path (the bytes/
// origin/replicas lookups every fetch performs).
func BenchmarkCatalogReadsParallel(b *testing.B) {
	reg, ids := benchRegistry(b)
	cat := NewCatalog(reg)
	registerAll(b, ids, cat.RegisterDataset)
	var cursor atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := cursor.Add(1)
		for pb.Next() {
			id := ids[i%uint64(len(ids))]
			if _, err := cat.DatasetBytes(id); err != nil {
				b.Fatal(err)
			}
			if _, err := cat.Origin(id); err != nil {
				b.Fatal(err)
			}
			i += 7
		}
	})
}

// BenchmarkSweepAtFloor measures one node's repair pass over a healthy
// catalog: three nodes, every dataset at its live-copy floor of two, at
// small_read's 2,048 datasets and at 100,000. Nothing is below the
// floor and nothing is hot, so the pass only reads each dataset's
// holders and counts the live ones.
func BenchmarkSweepAtFloor(b *testing.B) {
	for _, bc := range []struct {
		name     string
		datasets int
	}{{"2k", 2048}, {"100k", 100_000}} {
		b.Run(bc.name, func(b *testing.B) {
			lc := startCluster(b, ClusterConfig{Nodes: 3, Users: 1, Datasets: bc.datasets,
				DatasetBytes: 1024, Sweep: SweeperConfig{Disabled: true}})
			for d, id := range lc.DatasetIDs {
				if err := lc.Catalog.AddReplica(id, storage.NodeID((d+1)%3+1)); err != nil {
					b.Fatal(err)
				}
			}
			n, ctx := lc.Nodes[0], context.Background()
			st := newSweepState()
			n.repairReplication(ctx, st) // grows the scratch slices once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.repairReplication(ctx, st)
			}
			b.StopTimer()
			if len(st.below) != 0 {
				b.Fatalf("%d datasets seen below their floor", len(st.below))
			}
		})
	}
}

// BenchmarkPayloadBlock measures the SHA-256 chain that derives a
// dataset's repetition block, paid once per materialized replica or
// segment (and per request only on the generator fallback).
func BenchmarkPayloadBlock(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = payloadBlock("bench-payload")
	}
}

// BenchmarkWritePayloadRange measures the wire-serialization cost of a
// mid-block 64 KiB range from a prebuilt block.
func BenchmarkWritePayloadRange(b *testing.B) {
	block := payloadBlock("bench-payload")
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := copyBuffered(io.Discard, io.NewSectionReader(block, 1000, 64<<10)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRW is a minimal ResponseWriter standing in for net/http's: like
// the real one it implements io.ReaderFrom (the hook sendfile rides in
// production), here with a pooled buffer so the benchmark measures the
// serving path's own allocations, not the fake's.
type benchRW struct {
	h http.Header
	n int64
}

func (w *benchRW) Header() http.Header { return w.h }
func (w *benchRW) WriteHeader(int)     {}
func (w *benchRW) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (w *benchRW) ReadFrom(r io.Reader) (int64, error) {
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	var n int64
	for {
		m, err := r.Read(*bp)
		n += int64(m)
		w.n += int64(m)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// benchNode builds an in-package node with just the serving-path
// collaborators wired.
func benchNode(vol *storage.DiskVolume) *Node {
	return &Node{
		cfg:       Config{Node: 1},
		vol:       vol,
		srcID:     "1",
		srcHdr:    []string{"1"},
		manifests: ingest.NewStore(),
		Metrics:   &Metrics{},
	}
}

// BenchmarkServeLocal measures the warm per-fetch cost of the fetch
// handler serving a disk-backed replica it holds, on a one-node cluster
// (auth, catalog and Range parsing included): full bodies and
// single-part ranges (sendfile) and a three-part multipart answer (one
// pooled send buffer). The replica exists before the timer runs.
func BenchmarkServeLocal(b *testing.B) {
	const total = int64(256 << 10)
	const rangeHdr = "bytes=5000-70535" // 64 KiB, mid-block offset
	for _, tc := range []struct{ name, rangeHdr string }{
		{"warm-full", ""},
		{"warm-range", rangeHdr},
		{"warm-multipart", "bytes=0-1023,60000-70535,-4096"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			lc := startCluster(b, ClusterConfig{Nodes: 1, Users: 1, Datasets: 1, DatasetBytes: total,
				Sweep: SweeperConfig{Disabled: true}})
			n, id := lc.Nodes[0], lc.DatasetIDs[0]
			req := httptest.NewRequest(http.MethodGet, "/v1/fetch/"+string(id), nil)
			req.SetPathValue("dataset", string(id))
			req.Header.Set("Authorization", "Bearer "+string(login(b, lc)))
			if tc.rangeHdr != "" {
				req.Header.Set("Range", tc.rangeHdr)
			}
			rngs, _, err := parseRanges(nil, tc.rangeHdr, total)
			if err != nil {
				b.Fatal(err)
			}
			var want int64
			for _, rng := range rngs {
				want += rng.n
			}
			w := &benchRW{h: make(http.Header)}
			n.handleFetch(w, req) // warm: materialize + prime pools
			b.SetBytes(want)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.n = 0
				n.handleFetch(w, req)
				if len(rngs) == 1 && w.n != want {
					b.Fatalf("served %d bytes, want %d", w.n, want)
				}
			}
			b.StopTimer()
			if n.Metrics.StoreDiskHits.Value() == 0 {
				b.Fatal("benchmark never hit the volume")
			}
		})
	}
}

// BenchmarkMaterializeCold measures the one-time cost the disk path pays
// before its first serve: deriving the payload and committing it to the
// volume (temp file + rename). Amortized over every later sendfile hit.
func BenchmarkMaterializeCold(b *testing.B) {
	const total = int64(256 << 10)
	const id = storage.DatasetID("bench-serve")
	vol, err := storage.NewDiskVolume(b.TempDir(), 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	n := benchNode(vol)
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vol.Remove(id)
		if !n.materialize(id, id, 0, total) {
			b.Fatal("materialize failed")
		}
	}
}

// BenchmarkSeedCluster measures cluster start-up. large is two
// 256 MiB seeded datasets on two nodes, the large_stream set-up; many
// is 2,048 datasets of 64 KiB on three nodes, the small_read corpus.
// Each seeded manifest is derived on first use, so start-up hashes
// nothing and grows with neither the seeded bytes nor, beyond catalog
// registration, the dataset count.
func BenchmarkSeedCluster(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  ClusterConfig
	}{
		{"large", ClusterConfig{Nodes: 2, Datasets: 2, DatasetBytes: 256 << 20}},
		{"many", ClusterConfig{Nodes: 3, Datasets: 2048, DatasetBytes: 64 << 10}},
	} {
		bc.cfg.Sweep = SweeperConfig{Disabled: true}
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lc, err := StartLocalCluster(bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err = lc.Shutdown(ctx)
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
