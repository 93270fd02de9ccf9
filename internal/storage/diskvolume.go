package storage

import (
	"container/list"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// DiskVolume is the on-disk realization of the CDN-managed replica
// partition (Section V-A): dataset bytes live in real files under a root
// directory, so the serving plane can hand the kernel a descriptor and
// ride sendfile instead of synthesizing payload bytes in userspace per
// request. The partition holds many small datasets, and on a real
// filesystem creating a file costs far more than writing its bytes, so
// entries are not files: each is an extent of an append-only pack file
// (pack.go), and an entry becomes visible only when its record reaches
// the volume's index log — readers can never observe a partial replica,
// and a crash mid-write leaves only unreferenced pack bytes, which the
// next NewDiskVolume frees. The volume enforces a byte quota with LRU
// eviction and pools open read handles per pack, so a warm serve costs
// no open(2) and no allocation.
//
// Layout under the root:
//
//	pack-<n>    append-only pack files holding the committed extents
//	index.log   append-only log of put and remove records
//
// All methods are safe for concurrent use.
type DiskVolume struct {
	dir   string
	quota int64

	// fsMu serializes mutations of the index log: a commit's put record
	// against eviction and removal records, so the log replays to the
	// index. It is ordered before v.mu and is never taken on the serve
	// path (Open/Release touch only v.mu), so disk latency under fsMu
	// cannot stall readers. log, logSize and logBuf are fsMu's.
	fsMu    sync.Mutex
	log     *os.File
	logSize int64
	logBuf  []byte

	// mu guards the index and the packs' state below and is held only
	// for map/list work — never across file I/O, which the serving
	// plane's hot path sits behind.
	mu        sync.Mutex
	ll        *list.List // front = most recently used
	items     map[DatasetID]*list.Element
	used      int64
	evictions uint64
	inflight  map[DatasetID]chan struct{} // singleflight materializations
	packs     map[uint32]*pack
	idle      []*pack // packs free to take a spill, LIFO
	nextPack  uint32

	// segMu guards the interned segment-key table (segment.go). Its own
	// lock, not v.mu: key interning is read-mostly and must not contend
	// with the index on the serve path.
	segMu   sync.RWMutex
	segKeys map[DatasetID][]DatasetID
}

// maxPooledFDs caps the idle read handles kept per pack; every entry of
// the pack shares them. Under the benchmark workloads (small_read,
// large_stream, ingest_mixed on a 2-core host) at most 2 handles on one
// pack were out at once, so four never forces a fresh open on a warm
// serve.
const maxPooledFDs = 4

type diskEntry struct {
	id     DatasetID
	size   int64
	pk     *pack
	off    int64 // extent base within the pack
	refs   int   // handles out
	pinned bool  // never evicted (origin/user-partition copies)
	dead   bool  // removal logged; its bytes wait for the last handle
}

// DiskVolumeStats is a point-in-time usage snapshot.
type DiskVolumeStats struct {
	Files      int
	UsedBytes  int64
	QuotaBytes int64
	Evictions  uint64
}

// NewDiskVolume opens (or creates) a replica volume rooted at dir with
// the given byte quota. Entries the index log records inside their pack
// are adopted — a restart keeps its replicas — and every other pack
// byte is a spill that never committed or an entry removed since, so
// its blocks are freed. A directory holding a legacy data/ tree is
// refused.
func NewDiskVolume(dir string, quota int64) (*DiskVolume, error) {
	if quota <= 0 {
		return nil, fmt.Errorf("storage: non-positive volume quota %d", quota)
	}
	v := &DiskVolume{
		dir:      dir,
		quota:    quota,
		ll:       list.New(),
		items:    make(map[DatasetID]*list.Element),
		inflight: make(map[DatasetID]chan struct{}),
		packs:    make(map[uint32]*pack),
		segKeys:  make(map[DatasetID][]DatasetID),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: volume %s: %w", dir, err)
	}
	if err := v.recover(); err != nil {
		return nil, fmt.Errorf("storage: volume %s: %w", dir, err)
	}
	return v, nil
}

// Dir returns the volume's root directory.
func (v *DiskVolume) Dir() string { return v.dir }

// Quota returns the volume's byte quota.
func (v *DiskVolume) Quota() int64 { return v.quota }

// Stats returns a usage snapshot.
func (v *DiskVolume) Stats() DiskVolumeStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return DiskVolumeStats{
		Files:      len(v.items),
		UsedBytes:  v.used,
		QuotaBytes: v.quota,
		Evictions:  v.evictions,
	}
}

// Len returns the number of committed replicas.
func (v *DiskVolume) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.items)
}

// Has reports whether the volume holds a committed replica of id.
func (v *DiskVolume) Has(id DatasetID) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	_, ok := v.items[id]
	return ok
}

// IDs returns the committed dataset IDs in LRU order (most recent
// first).
func (v *DiskVolume) IDs() []DatasetID {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]DatasetID, 0, len(v.items))
	for el := v.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*diskEntry).id)
	}
	return out
}

// Locate reports where an entry's bytes live: its pack file and the
// extent [off, off+size) within it (test and inspection hook).
func (v *DiskVolume) Locate(id DatasetID) (path string, off, size int64, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	el, ok := v.items[id]
	if !ok {
		return "", 0, 0, false
	}
	e := el.Value.(*diskEntry)
	return e.pk.path, e.off, e.size, true
}

// Reserved returns the datasets whose spills currently hold a pack —
// the extents reserved but not committed (test and inspection hook; a
// volume at rest reports none).
func (v *DiskVolume) Reserved() []DatasetID {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []DatasetID
	for _, pk := range v.packs {
		if pk.busy {
			out = append(out, pk.holder)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Handle is a read handle on one entry's extent: a descriptor of the
// entry's pack plus the extent's base and size. It is exclusively its
// holder's until Release, so FileAt may move the descriptor's position.
type Handle struct {
	f  *os.File
	pk *pack
	e  *diskEntry // the entry read; nil while pooled
}

// Size returns the extent's length.
func (h *Handle) Size() int64 { return h.e.size }

// FileAt positions the pack descriptor at offset off of the extent and
// returns it, for a kernel copy (sendfile) of at most Size()-off bytes.
func (h *Handle) FileAt(off int64) (*os.File, error) {
	_, err := h.f.Seek(h.e.off+off, io.SeekStart)
	return h.f, err
}

// Open returns a read handle on the dataset's replica and its size,
// refreshing LRU recency. The handle is exclusively the caller's until
// Release — pooled handles are never shared, so callers may position
// it freely. A miss returns ok == false.
func (v *DiskVolume) Open(id DatasetID) (h *Handle, size int64, ok bool) {
	h, size, _, ok = v.open(id)
	return h, size, ok
}

// open is Open plus a freshness report: fresh is true when the handle's
// descriptor came from open(2) rather than the pack's pool, which is
// when per-descriptor advice (readahead hints) is worth applying.
func (v *DiskVolume) open(id DatasetID) (h *Handle, size int64, fresh, ok bool) {
	v.mu.Lock()
	el, present := v.items[id]
	if !present {
		v.mu.Unlock()
		return nil, 0, false, false
	}
	v.ll.MoveToFront(el)
	e := el.Value.(*diskEntry)
	e.refs++
	pk := e.pk
	if n := len(pk.idle); n > 0 {
		h = pk.idle[n-1]
		pk.idle = pk.idle[:n-1]
		h.e = e
		v.mu.Unlock()
		return h, e.size, false, true
	}
	v.mu.Unlock()
	// The reference taken above keeps the pack linked while it opens.
	f, err := os.Open(pk.path)
	if err != nil {
		v.Release(id, &Handle{pk: pk, e: e})
		return nil, 0, false, false
	}
	return &Handle{f: f, pk: pk, e: e}, e.size, true, true
}

// Release returns a handle obtained from Open to its pack's pool (the
// handle is closed when the pool is full). When it was the last handle
// on a removed entry, the entry's bytes are freed now. h may be nil.
func (v *DiskVolume) Release(_ DatasetID, h *Handle) {
	if h == nil {
		return
	}
	var c cleanup
	v.mu.Lock()
	e, pk := h.e, h.pk
	h.e = nil
	if e.refs--; e.dead && e.refs == 0 {
		v.dropExtentLocked(e, &c)
	}
	pooled := h.f != nil && !pk.gone && len(pk.idle) < maxPooledFDs
	if pooled {
		pk.idle = append(pk.idle, h)
	}
	v.mu.Unlock()
	if !pooled && h.f != nil {
		_ = h.f.Close()
	}
	v.reap(&c)
}

// Remove deletes a committed replica. Removing an absent dataset is a
// no-op. Handles still out keep reading the replica's bytes until they
// are released.
func (v *DiskVolume) Remove(id DatasetID) {
	v.fsMu.Lock()
	defer v.fsMu.Unlock()
	var c cleanup
	v.mu.Lock()
	if el, ok := v.items[id]; ok {
		v.removeLocked(el, &c)
	}
	v.mu.Unlock()
	v.reap(&c)
}

// Close releases the volume's descriptors — its log's, its packs' and
// their pooled handles' — so removing the directory frees its blocks at
// once. Handles still out are closed by their Release. The volume must
// not be used after Close.
func (v *DiskVolume) Close() error {
	v.fsMu.Lock()
	defer v.fsMu.Unlock()
	var c cleanup
	v.mu.Lock()
	for _, pk := range v.packs {
		pk.gone = true
		c.fds = append(c.fds, pk.w)
		for _, h := range pk.idle {
			c.fds = append(c.fds, h.f)
		}
		pk.idle = nil
	}
	v.mu.Unlock()
	v.reap(&c)
	return v.log.Close()
}

// cleanup is I/O deferred out of a v.mu critical section: remove
// records to log, extents to free, idle descriptors to close and packs
// to unlink once the index lock is released.
type cleanup struct {
	removed []*diskEntry
	punch   []extent
	fds     []*os.File
	unlink  []*pack
}

// extent is a byte range of a pack.
type extent struct {
	pk        *pack
	off, size int64
}

// reap logs the removals c queues and performs the deferred I/O.
// Callers must have released v.mu, and hold fsMu whenever c queues
// removals. A removed entry is marked dead — its extent dropped now, or
// by the Release of the last handle still reading it — only once its
// remove record is logged. A removal whose record cannot be logged keeps
// its bytes for good: replay will adopt the entry again, and must find
// it intact.
func (v *DiskVolume) reap(c *cleanup) {
	if len(c.removed) > 0 {
		recs := make([]logRec, len(c.removed))
		for i, e := range c.removed {
			recs[i] = logRec{kind: recDel, id: e.id}
		}
		if v.appendLog(recs...) == nil {
			v.mu.Lock()
			for _, e := range c.removed {
				e.dead = true
				if e.refs == 0 {
					v.dropExtentLocked(e, c)
				}
			}
			v.mu.Unlock()
		}
	}
	for _, f := range c.fds {
		_ = f.Close()
	}
	for _, x := range c.punch {
		punchHole(x.pk.w, x.off, x.size)
	}
	for _, pk := range c.unlink {
		_ = pk.w.Close()
		_ = os.Remove(pk.path)
	}
}

// insertLocked indexes a committed entry and queues the cleanups of
// any entries evicted to make room. Caller holds v.mu.
func (v *DiskVolume) insertLocked(e *diskEntry, c *cleanup) {
	el := v.ll.PushFront(e)
	v.items[e.id] = el
	v.used += e.size
	v.evictOverQuotaLocked(el, c)
}

// evictOverQuotaLocked drops least-recently-used replicas from the
// index until the volume fits its quota, never evicting keep or pinned
// entries (origin copies of opaque datasets exist nowhere else — losing
// the last copy to cache pressure would lose the data). The I/O is
// queued on c for the caller to perform after v.mu is released.
func (v *DiskVolume) evictOverQuotaLocked(keep *list.Element, c *cleanup) {
	el := v.ll.Back()
	for v.used > v.quota && el != nil {
		prev := el.Prev()
		if el != keep && !el.Value.(*diskEntry).pinned {
			v.removeLocked(el, c)
			v.evictions++
		}
		el = prev
	}
}

// Pin marks a committed replica as non-evictable: LRU pressure skips it
// (Remove still deletes it explicitly). Reports whether the dataset was
// present.
func (v *DiskVolume) Pin(id DatasetID) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	el, ok := v.items[id]
	if ok {
		el.Value.(*diskEntry).pinned = true
	}
	return ok
}

// removeLocked drops an entry from the index and queues its remove
// record; reap retires the entry's bytes once that record is logged.
func (v *DiskVolume) removeLocked(el *list.Element, c *cleanup) {
	e := el.Value.(*diskEntry)
	v.ll.Remove(el)
	delete(v.items, e.id)
	v.used -= e.size
	c.removed = append(c.removed, e)
}

// dropExtentLocked retires a dead entry's extent once no handle reads
// it: the extent's blocks are punched out of the pack, or — when it was
// the last extent of a rolled pack — the whole pack is unlinked.
func (v *DiskVolume) dropExtentLocked(e *diskEntry, c *cleanup) {
	pk := e.pk
	pk.extents--
	if pk.rolled && pk.extents == 0 {
		pk.gone = true
		delete(v.packs, pk.n)
		for _, h := range pk.idle {
			c.fds = append(c.fds, h.f)
		}
		pk.idle = nil
		c.unlink = append(c.unlink, pk)
		return
	}
	c.punch = append(c.punch, extent{pk: pk, off: e.off, size: alignUp(e.size)})
}

// Materialize ensures the dataset's replica exists on disk, producing it
// with fill (which must write exactly size bytes) when absent.
// Concurrent calls for the same dataset are single-flight: one caller
// runs fill, the rest wait for its outcome. It reports whether this call
// did the work — false means the replica already existed or another
// flight produced it.
func (v *DiskVolume) Materialize(id DatasetID, size int64, fill func(io.Writer) error) (bool, error) {
	for {
		v.mu.Lock()
		if _, ok := v.items[id]; ok {
			v.mu.Unlock()
			return false, nil
		}
		if ch, ok := v.inflight[id]; ok {
			v.mu.Unlock()
			<-ch
			// The flight may have failed; re-check and possibly lead.
			continue
		}
		ch := make(chan struct{})
		v.inflight[id] = ch
		v.mu.Unlock()

		err := v.materializeOnce(id, size, fill)

		v.mu.Lock()
		delete(v.inflight, id)
		v.mu.Unlock()
		close(ch)
		if err != nil {
			return false, err
		}
		return true, nil
	}
}

func (v *DiskVolume) materializeOnce(id DatasetID, size int64, fill func(io.Writer) error) error {
	sp, err := v.NewSpill(id)
	if err != nil {
		return err
	}
	if err := fill(sp); err != nil {
		sp.Abort()
		return fmt.Errorf("storage: materialize %q: %w", id, err)
	}
	return sp.Commit(size)
}
