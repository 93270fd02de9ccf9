package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"scdn/internal/allocation"
	"scdn/internal/ingest"
	"scdn/internal/server"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
)

// spanRec is one timed interval of the traced run. Spans of one op share
// its op index; parent 0 marks an op's root span.
type spanRec struct {
	op         int64
	id, parent int64
	name       string
	kind       opKind
	holder     bool
	start, end int64 // ns since the run's epoch
}

// tracer records one client's spans in memory. The traced run's spans
// come from two sources: httptrace hooks on every request the client
// sends, and probes — calls the benchmark makes, on one op in every
// workload.probeEvery, into each layer's public functions with that
// op's inputs, under the same load. Nothing inside the program is
// instrumented.
type tracer struct {
	epoch    time.Time
	base     int64 // span IDs of this client are base+1, base+2, ...
	spans    []spanRec
	cur      *op
	curIdx   int64
	opSpan   int64
	newConns int
	probes   int
	// samples holds per-probe derived values (rates, per-MiB costs)
	// keyed by metric name.
	samples map[string][]float64

	sideCat *server.Catalog     // catalog.register target
	sideVol *storage.DiskVolume // spill and materialize target
	err     error               // first failed probe call
}

// probeBytes caps the bytes a probe hashes, verifies or materializes.
const probeBytes = 4 * mib

// spillBytes caps the bytes a probe spills and commits.
const spillBytes = 1 * mib

func newTracer(e *env, c int, epoch time.Time) (*tracer, error) {
	cat, err := server.NewCatalogSharded(2, e.lc.Registry, e.lc.Catalog.ShardCount())
	if err != nil {
		return nil, err
	}
	vol, err := storage.NewDiskVolume(filepath.Join(e.storeDir, fmt.Sprintf("probe-%d", c)), 1<<30)
	if err != nil {
		return nil, err
	}
	return &tracer{
		epoch: epoch, base: int64(c+1) << 40, sideCat: cat, sideVol: vol,
		samples: make(map[string][]float64),
	}, nil
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	id := t.base + int64(len(t.spans)) + 1
	t.spans = append(t.spans, spanRec{
		op: t.curIdx, id: id, parent: parent, name: name,
		kind: t.cur.kind, holder: t.cur.holder, start: t.ns(start), end: t.ns(end),
	})
	return id
}

func (t *tracer) setEnd(id int64, end time.Time) { t.spans[id-t.base-1].end = t.ns(end) }

func (t *tracer) beginOp(idx int64, o *op, start time.Time) {
	t.cur, t.curIdx = o, idx
	t.opSpan = t.add("op", 0, start, start)
}

func (t *tracer) endOp(end time.Time) { t.setEnd(t.opSpan, end) }

// request records one HTTP request of the current op from its httptrace
// timestamps: connection wait, server wait (request written → first
// response byte) and body read, with the body's verification time as
// its child.
func (t *tracer) request(rt *reqTrace, name string, start, end time.Time, verify time.Duration) {
	if !rt.reused {
		t.newConns++
	}
	req := t.add(name, t.opSpan, start, end)
	if !rt.getConn.IsZero() && !rt.gotConn.IsZero() {
		t.add("client.conn_wait", req, rt.getConn, rt.gotConn)
	}
	if !rt.wrote.IsZero() && !rt.first.IsZero() {
		t.add("client.server_wait", req, rt.wrote, rt.first)
		body := t.add("client.body", req, rt.first, end)
		if verify > 0 {
			t.add("client.verify", body, end.Add(-verify), end)
		}
	}
}

// probe times the layer calls the op just made the cluster perform,
// with the op's inputs: authorization, the catalog lookups, the volume
// open, ingest hashing and verification of the op's bytes, and the
// write-side calls (register, spill+commit, materialize) on side
// instances so the live layout never changes.
func (t *tracer) probe(c *client, idx int64, o *op) {
	e := c.e
	t.probes++
	var (
		id     storage.DatasetID
		pat    *pattern
		holder = int(o.node)
		off    int64
		n      = e.size
	)
	if o.kind == opUpload {
		id = uploadID(idx)
		pat, n = payloadPattern(id), e.w.uploadBytes
	} else {
		id, pat, holder = e.ids[o.ds], e.pats[o.ds], e.holders[o.ds]
		switch o.kind {
		case opRange, opMulti:
			off, n = o.parts[0].off, o.parts[0].n
		case opSegWalk:
			off, n = o.parts[0].off*e.w.segmentSize, o.parts[0].n*e.w.segmentSize
		}
	}
	n = min(n, probeBytes)
	root := t.add("probe", t.opSpan, time.Now(), time.Now())
	timed := func(name string, f func() error) time.Duration {
		start := time.Now()
		err := f()
		end := time.Now()
		t.add(name, root, start, end)
		if err != nil && t.err == nil {
			t.err = fmt.Errorf("probe %s on %s: %w", name, id, err)
		}
		return end.Sub(start)
	}
	user := e.lc.UserIDs[c.id%len(e.lc.UserIDs)]
	timed("middleware.authorize", func() error {
		_, err := e.lc.Middleware.Authorize(socialnet.Token(e.tokens[c.id]), id)
		return err
	})
	timed("catalog.dataset_bytes", func() error {
		_, err := e.lc.Catalog.DatasetBytes(id)
		return err
	})
	timed("catalog.resolve", func() error {
		_, _, err := e.lc.Catalog.Resolve(id, allocation.NodeID(user))
		return err
	})
	timed("catalog.replicas", func() error {
		_, err := e.lc.Catalog.Replicas(id)
		return err
	})
	if t.probes%16 == 1 {
		timed("catalog.scan", func() error { return scanCatalog(e.lc.Catalog) })
	}
	vol := e.lc.Nodes[holder].Volume()
	if e.w.segmentSize > 0 && o.kind != opUpload {
		seg := off / e.w.segmentSize
		timed("storage.segment_open_release", func() error {
			f, _, _, ok := vol.OpenSegment(id, seg)
			if !ok {
				return fmt.Errorf("segment %d not resident", seg)
			}
			vol.ReleaseSegment(id, seg, f)
			return nil
		})
	} else {
		timed("storage.open_release", func() error {
			f, _, ok := vol.Open(id)
			if !ok {
				return fmt.Errorf("not resident")
			}
			vol.Release(id, f)
			return nil
		})
	}
	d := timed("ingest.hash", func() error {
		_, err := io.Copy(ingest.NewHasher(ingest.DefaultBlockSize), io.NewSectionReader(pat, off, n))
		return err
	})
	t.samples["ingest.hash_mb_per_s"] = append(t.samples["ingest.hash_mb_per_s"], float64(n)/1e6/d.Seconds())
	man, ok := e.lc.Manifests.Get(id)
	if !ok {
		t.err = fmt.Errorf("probe: no manifest for %s", id)
		return
	}
	vOff := off / ingest.DefaultBlockSize * ingest.DefaultBlockSize
	vEnd := min((off+n+ingest.DefaultBlockSize-1)/ingest.DefaultBlockSize*ingest.DefaultBlockSize, man.Size)
	d = timed("ingest.verify", func() error {
		v, err := man.NewRangeVerifier(vOff, vEnd-vOff)
		if err != nil {
			return err
		}
		if _, err := io.Copy(v, io.NewSectionReader(pat, vOff, vEnd-vOff)); err != nil {
			return err
		}
		return v.Close()
	})
	t.samples["ingest.verify_mb_per_s"] = append(t.samples["ingest.verify_mb_per_s"], float64(vEnd-vOff)/1e6/d.Seconds())
	side := storage.DatasetID(fmt.Sprintf("probe-%d", t.probes))
	timed("catalog.register", func() error {
		return t.sideCat.RegisterDataset(side, e.lc.Nodes[holder].ID(), e.size)
	})
	sn := min(n, spillBytes)
	timed("storage.spill_commit", func() error {
		sp, err := t.sideVol.NewSpill(side)
		if err != nil {
			return err
		}
		if _, err := io.Copy(sp, io.NewSectionReader(pat, off, sn)); err != nil {
			sp.Abort()
			return err
		}
		return sp.CommitVerified(sn, func(r io.Reader) error {
			_, err := io.Copy(ingest.NewHasher(ingest.DefaultBlockSize), r)
			return err
		}, false)
	})
	t.sideVol.Remove(side)
	mn := min(e.size, probeBytes)
	d = timed("storage.materialize", func() error {
		_, err := t.sideVol.Materialize(side, mn, func(w io.Writer) error {
			// 64 KiB writes, as the edges' own generator fill makes.
			bw := bufio.NewWriterSize(w, 64*kib)
			if _, err := server.WritePayload(bw, id, mn); err != nil {
				return err
			}
			return bw.Flush()
		})
		return err
	})
	t.sideVol.Remove(side)
	t.samples["storage.materialize_ms_per_mib"] = append(t.samples["storage.materialize_ms_per_mib"],
		float64(d.Microseconds())/1e3/(float64(mn)/mib))
	t.setEnd(root, time.Now())
}

// scanCatalog is the walk every sweep makes: Datasets, then Replicas
// of each.
func scanCatalog(cat *server.Catalog) error {
	ids, err := cat.Datasets()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if _, err := cat.Replicas(id); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []spanRec) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, until := int64(0), s.start
		for _, c := range iv {
			lo, hi := max(c[0], until), min(c[1], s.end)
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// writeSpans writes every span, with its self time, as tab-separated
// lines.
func writeSpans(path string, spans []spanRec, self map[int64]int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tkind\tholder\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%t\t%d\t%d\t%s\t%d\t%d\t%d\n",
			s.op, opKindNames[s.kind], s.holder, s.id, s.parent, s.name, s.start, s.end, self[s.id])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
