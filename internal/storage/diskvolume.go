package storage

import (
	"container/list"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// DiskVolume is the on-disk realization of the CDN-managed replica
// partition (Section V-A): dataset bytes live as real files under a root
// directory, one file per dataset, so the serving plane can hand the
// kernel an *os.File and ride sendfile instead of synthesizing payload
// bytes in userspace per request. Files become visible only through an
// atomic rename of a fully written temp file, so readers can never
// observe a partial replica — a crash mid-write leaves only garbage in
// the temp area, which the next NewDiskVolume sweeps away. The volume
// enforces a byte quota with LRU eviction and pools open read handles
// per dataset, so a warm serve costs no open(2) and no allocation.
//
// Layout under the root:
//
//	data/<escaped dataset ID>   committed replicas
//	tmp/<escaped ID>.<seq>      in-flight spills (never read)
//
// All methods are safe for concurrent use.
type DiskVolume struct {
	dir   string
	quota int64

	// fsMu serializes mutations of the data/ namespace: a commit's
	// rename-into-place against eviction/removal unlinks of the same
	// path. It is ordered before v.mu and is never taken on the serve
	// path (Open/Release touch only v.mu), so disk latency under fsMu
	// cannot stall readers.
	fsMu sync.Mutex

	// mu guards the index below and is held only for map/list work —
	// never across file I/O, which the serving plane's hot path sits
	// behind.
	mu        sync.Mutex
	ll        *list.List // front = most recently used
	items     map[DatasetID]*list.Element
	used      int64
	evictions uint64
	inflight  map[DatasetID]chan struct{} // singleflight materializations
	tmpSeq    uint64

	// segMu guards the interned segment-key table (segment.go). Its own
	// lock, not v.mu: key interning is read-mostly and must not contend
	// with the index on the serve path.
	segMu   sync.RWMutex
	segKeys map[DatasetID][]DatasetID
}

// maxPooledFDs caps the idle read handles kept per dataset. Four covers
// a striped client's typical fan-in without hoarding descriptors.
const maxPooledFDs = 4

type diskEntry struct {
	id     DatasetID
	size   int64
	fds    []*os.File // idle read handles, LIFO
	pinned bool       // never evicted (origin/user-partition copies)
}

// DiskVolumeStats is a point-in-time usage snapshot.
type DiskVolumeStats struct {
	Files      int
	UsedBytes  int64
	QuotaBytes int64
	Evictions  uint64
}

// NewDiskVolume opens (or creates) a replica volume rooted at dir with
// the given byte quota. Committed files already under data/ are adopted
// — a restart keeps its replicas — and anything under tmp/ is a spill
// that never committed, so it is deleted.
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
		segKeys:  make(map[DatasetID][]DatasetID),
	}
	for _, d := range []string{v.dataDir(), v.tmpDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("storage: volume %s: %w", dir, err)
		}
	}
	if err := v.recover(); err != nil {
		return nil, err
	}
	return v, nil
}

func (v *DiskVolume) dataDir() string { return filepath.Join(v.dir, "data") }
func (v *DiskVolume) tmpDir() string  { return filepath.Join(v.dir, "tmp") }

// path returns a dataset's committed file path. IDs are path-escaped so
// any dataset name maps to exactly one flat file.
func (v *DiskVolume) path(id DatasetID) string {
	return filepath.Join(v.dataDir(), url.PathEscape(string(id)))
}

// recover sweeps orphaned spills and adopts committed replicas.
func (v *DiskVolume) recover() error {
	tmps, err := os.ReadDir(v.tmpDir())
	if err != nil {
		return err
	}
	for _, e := range tmps {
		_ = os.Remove(filepath.Join(v.tmpDir(), e.Name()))
	}
	files, err := os.ReadDir(v.dataDir())
	if err != nil {
		return err
	}
	for _, e := range files {
		name, uerr := url.PathUnescape(e.Name())
		info, ierr := e.Info()
		if uerr != nil || ierr != nil || !info.Mode().IsRegular() {
			continue
		}
		v.mu.Lock()
		cs := v.insertLocked(DatasetID(name), info.Size(), false)
		v.mu.Unlock()
		v.reap(cs) // adopted files may already exceed the quota
	}
	return nil
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

// Open returns a positioned read handle on the dataset's replica and its
// size, refreshing LRU recency. The handle is exclusively the caller's
// until Release — pooled handles are never shared, so callers may Seek
// freely (http.ServeContent does). A miss returns ok == false.
func (v *DiskVolume) Open(id DatasetID) (f *os.File, size int64, ok bool) {
	f, size, _, ok = v.open(id)
	return f, size, ok
}

// open is Open plus a freshness report: fresh is true when the handle
// came from open(2) rather than the FD pool, which is when per-
// descriptor advice (readahead hints) is worth applying.
func (v *DiskVolume) open(id DatasetID) (f *os.File, size int64, fresh, ok bool) {
	v.mu.Lock()
	el, present := v.items[id]
	if !present {
		v.mu.Unlock()
		return nil, 0, false, false
	}
	v.ll.MoveToFront(el)
	e := el.Value.(*diskEntry)
	size = e.size
	if n := len(e.fds); n > 0 {
		f = e.fds[n-1]
		e.fds = e.fds[:n-1]
		v.mu.Unlock()
		return f, size, false, true
	}
	v.mu.Unlock()
	f, err := os.Open(v.path(id))
	if err != nil {
		// Evicted (unlinked) between the lookup and the open, or the
		// file vanished under us: drop the stale entry. fsMu first, so
		// the reap below cannot unlink a replica a concurrent commit
		// just renamed into place.
		v.fsMu.Lock()
		var cs []cleanup
		v.mu.Lock()
		if cur, still := v.items[id]; still && cur == el {
			cs = append(cs, v.removeLocked(el))
		}
		v.mu.Unlock()
		v.reap(cs)
		v.fsMu.Unlock()
		return nil, 0, false, false
	}
	return f, size, true, true
}

// Release returns a handle obtained from Open. Handles rewind to offset
// zero and go back into the per-dataset pool; handles of evicted entries
// (or a full pool) are closed. f may be nil.
func (v *DiskVolume) Release(id DatasetID, f *os.File) {
	if f == nil {
		return
	}
	v.mu.Lock()
	if el, ok := v.items[id]; ok {
		e := el.Value.(*diskEntry)
		if len(e.fds) < maxPooledFDs {
			if _, err := f.Seek(0, io.SeekStart); err == nil {
				e.fds = append(e.fds, f)
				v.mu.Unlock()
				return
			}
		}
	}
	v.mu.Unlock()
	_ = f.Close()
}

// Remove deletes a committed replica (and closes its pooled handles).
// Removing an absent dataset is a no-op.
func (v *DiskVolume) Remove(id DatasetID) {
	v.fsMu.Lock()
	defer v.fsMu.Unlock()
	var cs []cleanup
	v.mu.Lock()
	if el, ok := v.items[id]; ok {
		cs = append(cs, v.removeLocked(el))
	}
	v.mu.Unlock()
	v.reap(cs)
}

// cleanup is file I/O deferred out of a v.mu critical section: a path
// to unlink and idle handles to close once the index lock is released.
type cleanup struct {
	path string
	fds  []*os.File
}

// reap performs deferred cleanups. Callers must have released v.mu;
// they hold fsMu whenever the unlinked path could race a commit's
// rename (everywhere except construction-time recovery, which is
// single-threaded).
func (v *DiskVolume) reap(cs []cleanup) {
	for _, c := range cs {
		for _, f := range c.fds {
			_ = f.Close()
		}
		_ = os.Remove(c.path)
	}
}

// insertLocked records a committed file and returns the deferred
// cleanups of any entries evicted to make room. Caller holds v.mu.
func (v *DiskVolume) insertLocked(id DatasetID, size int64, pin bool) []cleanup {
	el := v.ll.PushFront(&diskEntry{id: id, size: size, pinned: pin})
	v.items[id] = el
	v.used += size
	return v.evictOverQuotaLocked(el)
}

// evictOverQuotaLocked drops least-recently-used replicas from the
// index until the volume fits its quota, never evicting keep or pinned
// entries (origin copies of opaque datasets exist nowhere else — losing
// the last copy to cache pressure would lose the data). The file I/O is
// returned as cleanups for the caller to perform after v.mu is
// released.
func (v *DiskVolume) evictOverQuotaLocked(keep *list.Element) []cleanup {
	var cs []cleanup
	el := v.ll.Back()
	for v.used > v.quota && el != nil {
		prev := el.Prev()
		if el != keep && !el.Value.(*diskEntry).pinned {
			cs = append(cs, v.removeLocked(el))
			v.evictions++
		}
		el = prev
	}
	return cs
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

// removeLocked drops an entry from the index and returns the deferred
// unlink/close work. Handles currently out via Open stay valid — POSIX
// keeps the data reachable through open descriptors after the unlink.
func (v *DiskVolume) removeLocked(el *list.Element) cleanup {
	e := el.Value.(*diskEntry)
	v.ll.Remove(el)
	delete(v.items, e.id)
	v.used -= e.size
	fds := e.fds
	e.fds = nil
	return cleanup{path: v.path(e.id), fds: fds}
}

// Spill is an in-flight write of one dataset's bytes into the volume: a
// temp file that becomes a committed replica only through Commit's
// atomic rename. Sequential Write/Commit/Abort are single-goroutine;
// WriteAt may be called from many goroutines at once (striped
// transfers), provided Commit/CommitVerified/Abort happen only after
// every writer has returned. The volume itself stays concurrent around
// spills.
type Spill struct {
	v    *DiskVolume
	id   DatasetID
	f    *os.File
	path string
	n    int64
	err  error
	done bool

	// atMu guards the error state shared by concurrent WriteAt callers.
	atMu  sync.Mutex
	atErr error
}

// NewSpill opens a temp file for the dataset's bytes. The caller must
// finish with Commit or Abort.
func (v *DiskVolume) NewSpill(id DatasetID) (*Spill, error) {
	v.mu.Lock()
	v.tmpSeq++
	seq := v.tmpSeq
	v.mu.Unlock()
	path := filepath.Join(v.tmpDir(), fmt.Sprintf("%s.%d", url.PathEscape(string(id)), seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: spill %q: %w", id, err)
	}
	return &Spill{v: v, id: id, f: f, path: path}, nil
}

// Write appends to the temp file. After the first error the spill is
// poisoned: Commit will fail, further writes are rejected.
func (s *Spill) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.f.Write(p)
	s.n += int64(n)
	if err != nil {
		s.err = err
	}
	return n, err
}

// WriteAt writes p at absolute offset off in the temp file (pwrite).
// Safe for concurrent use by the stripes of one parallel transfer; the
// positioned writes do not disturb sequential Write's file offset, and
// after the first failure the spill is poisoned the same as Write.
// Byte accounting is by extent, so CommitVerified — which checks the
// real file size — must be used to publish a striped spill.
func (s *Spill) WriteAt(p []byte, off int64) (int, error) {
	s.atMu.Lock()
	err := s.atErr
	s.atMu.Unlock()
	if err != nil {
		return 0, err
	}
	n, err := s.f.WriteAt(p, off)
	if err != nil {
		s.atMu.Lock()
		if s.atErr == nil {
			s.atErr = err
		}
		s.atMu.Unlock()
	}
	return n, err
}

// Bytes returns how many bytes have been spilled so far.
func (s *Spill) Bytes() int64 { return s.n }

// Abort discards the spill: the temp file is closed and deleted, and no
// replica appears. Abort after Commit is a no-op.
func (s *Spill) Abort() {
	if s.done {
		return
	}
	s.done = true
	_ = s.f.Close()
	_ = os.Remove(s.path)
}

// Commit publishes the spill as the dataset's replica iff exactly want
// bytes were written and no write failed. On success the temp file is
// atomically renamed into place, the entry is indexed, and LRU eviction
// trims the volume back under quota. On any failure the temp file is
// removed and no replica appears.
func (s *Spill) Commit(want int64) error {
	if s.done {
		return fmt.Errorf("storage: spill %q already finished", s.id)
	}
	if s.err == nil {
		s.atMu.Lock()
		s.err = s.atErr
		s.atMu.Unlock()
	}
	if s.err != nil {
		s.Abort()
		return fmt.Errorf("storage: spill %q failed: %w", s.id, s.err)
	}
	if s.n != want {
		s.Abort()
		return fmt.Errorf("storage: spill %q wrote %d of %d bytes", s.id, s.n, want)
	}
	if err := s.f.Close(); err != nil {
		s.done = true
		_ = os.Remove(s.path)
		return fmt.Errorf("storage: spill %q: %w", s.id, err)
	}
	s.done = true
	return s.v.commit(s.id, s.path, want, false)
}

// CommitVerified publishes the spill like Commit, but sizes the spill by
// the real file length (so positioned WriteAt stripes count correctly)
// and, when verify is non-nil, hands the finished temp file to it
// before the rename — the replica becomes visible only if its on-disk
// bytes pass. verify's reader is always an *io.SectionReader over
// exactly want bytes of the temp file, closed and reopened after the
// last write, so a verifier may read it by offset (io.ReaderAt) as
// well as in order, and the bytes it checks are the bytes the rename
// publishes. pin marks the committed entry non-evictable (the origin
// copy of an uploaded dataset). On any failure, a verify error
// included, the temp file is removed and no replica appears.
func (s *Spill) CommitVerified(want int64, verify func(io.Reader) error, pin bool) error {
	if s.done {
		return fmt.Errorf("storage: spill %q already finished", s.id)
	}
	if s.err == nil {
		s.atMu.Lock()
		s.err = s.atErr
		s.atMu.Unlock()
	}
	if s.err != nil {
		s.Abort()
		return fmt.Errorf("storage: spill %q failed: %w", s.id, s.err)
	}
	if err := s.f.Close(); err != nil {
		s.done = true
		_ = os.Remove(s.path)
		return fmt.Errorf("storage: spill %q: %w", s.id, err)
	}
	s.done = true
	info, err := os.Stat(s.path)
	if err != nil {
		_ = os.Remove(s.path)
		return fmt.Errorf("storage: spill %q: %w", s.id, err)
	}
	if info.Size() != want {
		_ = os.Remove(s.path)
		return fmt.Errorf("storage: spill %q holds %d of %d bytes", s.id, info.Size(), want)
	}
	if verify != nil {
		f, err := os.Open(s.path)
		if err != nil {
			_ = os.Remove(s.path)
			return fmt.Errorf("storage: spill %q: %w", s.id, err)
		}
		verr := verify(io.NewSectionReader(f, 0, want))
		_ = f.Close()
		if verr != nil {
			_ = os.Remove(s.path)
			return fmt.Errorf("storage: spill %q rejected: %w", s.id, verr)
		}
	}
	return s.v.commit(s.id, s.path, want, pin)
}

// commit renames a completed temp file into the data directory and
// indexes it. The rename and the index insert happen under fsMu (not
// v.mu), so eviction unlinks cannot interleave with the publish, while
// readers on v.mu never wait on the disk.
func (v *DiskVolume) commit(id DatasetID, tmpPath string, size int64, pin bool) error {
	if size > v.quota {
		_ = os.Remove(tmpPath)
		return fmt.Errorf("storage: replica %q (%d bytes) exceeds volume quota %d", id, size, v.quota)
	}
	v.fsMu.Lock()
	defer v.fsMu.Unlock()
	v.mu.Lock()
	el, dup := v.items[id]
	if dup && pin {
		// The racer's copy carries identical (verified) bytes; keep it and
		// take over only the pinning obligation.
		el.Value.(*diskEntry).pinned = true
	}
	v.mu.Unlock()
	if dup {
		// A racing spill/materialization committed first. Bytes are
		// content-addressed per dataset, so the existing file is identical;
		// drop ours.
		v.discardTmp(tmpPath)
		return nil
	}
	//lint:ignore lockio fsMu's entire purpose is serializing this rename against eviction unlinks; it is never taken on the serve path (see the field comment)
	if err := os.Rename(tmpPath, v.path(id)); err != nil {
		v.discardTmp(tmpPath)
		return fmt.Errorf("storage: commit %q: %w", id, err)
	}
	v.mu.Lock()
	cs := v.insertLocked(id, size, pin)
	v.mu.Unlock()
	v.reap(cs)
	return nil
}

// discardTmp disposes of a temp file that lost its commit.
func (v *DiskVolume) discardTmp(tmpPath string) { _ = os.Remove(tmpPath) }

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

// TempFiles returns the basenames currently in the spill area (test and
// inspection hook; committed volumes should report none at rest).
func (v *DiskVolume) TempFiles() []string {
	entries, err := os.ReadDir(v.tmpDir())
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), ".") {
			out = append(out, e.Name())
		}
	}
	return out
}
