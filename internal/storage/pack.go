package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Pack layout. A volume keeps every committed entry — flat replica or
// segment — as an extent (pack, off, size) of an append-only pack file,
// and its index as an append-only log of put and remove records. Each
// spill is the only appender of the pack it holds, so writers never
// contend on a file and a materialization, upload or segment creates no
// inode: the volume creates about as many pack files as it has spills in
// flight at peak, plus one per packRoll bytes committed.
const (
	// packRoll is the tail at which a pack stops taking spills. A rolled
	// pack whose last extent dies is unlinked.
	packRoll = 64 << 20

	// extentAlign aligns every extent's base to a filesystem block, so a
	// dead extent's hole punch frees whole blocks and never touches a
	// neighbour's.
	extentAlign = 4096

	logName     = "index.log"
	packPrefix  = "pack-"
	legacyDir   = "data"
	compactTemp = logName + ".tmp"
)

// pack is one append-only pack file. All fields but w are guarded by the
// volume's mu.
type pack struct {
	n    uint32
	path string
	// w is the pack's read-write descriptor: the holding spill's pwrites,
	// the verifier's reads, Abort's truncation and hole punches. It has no
	// shared file position; readers get descriptors of their own.
	w      *os.File
	tail   int64     // aligned end of the last committed extent: the next spill's base
	holder DatasetID // the spill holding the pack ("" when idle)
	busy   bool      // held by a spill
	rolled bool      // tail reached packRoll: takes no more spills
	gone   bool      // unlinked
	// extents counts the pack's entries: live ones, and removed ones
	// whose bytes are not retired yet (a handle still reads them, or
	// their remove record is not logged).
	extents int
	idle    []*Handle // pooled read handles, LIFO
}

func alignUp(n int64) int64 { return (n + extentAlign - 1) &^ (extentAlign - 1) }

func (v *DiskVolume) packPath(n uint32) string {
	return filepath.Join(v.dir, packPrefix+strconv.FormatUint(uint64(n), 10))
}

func (v *DiskVolume) logPath() string { return filepath.Join(v.dir, logName) }

// Index log records. Each record is one write(2) of
//
//	crc32c(body) u32 | len(body) u32 | body
//	body = kind u8 | pack u32 | off u64 | size u64 | dataset ID
//
// A record cut short or failing its checksum ends the replay: appends
// are sequential, so only the final record can tear.
const (
	recPut = 1
	recDel = 2

	recHeader = 8
	recFixed  = 1 + 4 + 8 + 8
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type logRec struct {
	kind      byte
	pack      uint32
	off, size int64
	id        DatasetID
}

func appendRecord(b []byte, r logRec) []byte {
	at := len(b)
	b = append(b, make([]byte, recHeader+recFixed)...)
	body := b[at+recHeader:]
	body[0] = r.kind
	binary.LittleEndian.PutUint32(body[1:], r.pack)
	binary.LittleEndian.PutUint64(body[5:], uint64(r.off))
	binary.LittleEndian.PutUint64(body[13:], uint64(r.size))
	b = append(b, r.id...)
	body = b[at+recHeader:]
	binary.LittleEndian.PutUint32(b[at:], crc32.Checksum(body, crcTable))
	binary.LittleEndian.PutUint32(b[at+4:], uint32(len(body)))
	return b
}

// parseLog decodes records up to the first torn one.
func parseLog(b []byte) []logRec {
	var out []logRec
	for len(b) >= recHeader {
		n := int(binary.LittleEndian.Uint32(b[4:]))
		if n < recFixed || n > len(b)-recHeader {
			break
		}
		body := b[recHeader : recHeader+n]
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b) {
			break
		}
		out = append(out, logRec{
			kind: body[0],
			pack: binary.LittleEndian.Uint32(body[1:]),
			off:  int64(binary.LittleEndian.Uint64(body[5:])),
			size: int64(binary.LittleEndian.Uint64(body[13:])),
			id:   DatasetID(body[recFixed:]),
		})
		b = b[recHeader+n:]
	}
	return out
}

// appendLog writes records to the index log as one append. Caller holds
// fsMu. A failed append is cut back off, so a torn record can never sit
// in front of a later one.
func (v *DiskVolume) appendLog(recs ...logRec) error {
	v.logBuf = v.logBuf[:0]
	for _, r := range recs {
		v.logBuf = appendRecord(v.logBuf, r)
	}
	n, err := v.log.Write(v.logBuf)
	if err != nil {
		_ = v.log.Truncate(v.logSize)
		return err
	}
	v.logSize += int64(n)
	return nil
}

// recover rebuilds the volume from its log and packs: it replays the
// log up to any torn final record, adopts the extents that lie inside
// their pack, frees every other byte of every pack (spills cut off
// before their record, removed extents whose punch never ran), unlinks
// packs left with nothing live, and compacts the log to one put per
// adopted entry. Construction is single-threaded, so it takes no locks.
func (v *DiskVolume) recover() error {
	if _, err := os.Stat(filepath.Join(v.dir, legacyDir)); err == nil {
		return fmt.Errorf("%s is a legacy one-file-per-replica tree, which a pack volume does not read; move it away",
			filepath.Join(v.dir, legacyDir))
	}
	_ = os.Remove(filepath.Join(v.dir, compactTemp))
	raw, err := os.ReadFile(v.logPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	// Replay: the last put of an ID wins unless a later remove drops it.
	live := make(map[DatasetID]int)
	recs := parseLog(raw)
	for i, r := range recs {
		v.nextPack = max(v.nextPack, r.pack+1)
		switch r.kind {
		case recPut:
			live[r.id] = i
		case recDel:
			delete(live, r.id)
		}
	}
	ents, err := os.ReadDir(v.dir)
	if err != nil {
		return err
	}
	for _, de := range ents {
		num, ok := strings.CutPrefix(de.Name(), packPrefix)
		n, perr := strconv.ParseUint(num, 10, 32)
		if !ok || perr != nil {
			continue
		}
		pk := &pack{n: uint32(n), path: v.packPath(uint32(n))}
		if pk.w, err = os.OpenFile(pk.path, os.O_RDWR, 0); err != nil {
			return err
		}
		v.packs[pk.n] = pk
		v.nextPack = max(v.nextPack, pk.n+1)
	}
	// Adopt in log order, so LRU recency follows commit order.
	sizes := make(map[uint32]int64)
	for _, pk := range v.packs {
		info, err := pk.w.Stat()
		if err != nil {
			return err
		}
		sizes[pk.n] = info.Size()
	}
	for i, r := range recs {
		pk := v.packs[r.pack]
		if at, ok := live[r.id]; !ok || at != i || r.kind != recPut || pk == nil ||
			r.off < 0 || r.size < 0 || r.off%extentAlign != 0 || r.off+r.size > sizes[pk.n] {
			continue
		}
		v.items[r.id] = v.ll.PushFront(&diskEntry{id: r.id, size: r.size, pk: pk, off: r.off})
		v.used += r.size
	}
	// Adopted entries may exceed the quota. The evicted ones' extents are
	// reclaimed with every other gap below, and the compacted log never
	// names them, so the eviction's own cleanup is dropped.
	var evicted cleanup
	v.evictOverQuotaLocked(nil, &evicted)
	byPack := make(map[*pack][]*diskEntry)
	for el := v.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*diskEntry)
		byPack[e.pk] = append(byPack[e.pk], e)
	}
	// Free everything no adopted extent covers.
	for _, pk := range v.packs {
		es := byPack[pk]
		if len(es) == 0 {
			_ = pk.w.Close()
			_ = os.Remove(pk.path)
			delete(v.packs, pk.n)
			continue
		}
		pk.extents = len(es)
		sort.Slice(es, func(i, j int) bool { return es[i].off < es[j].off })
		var end int64
		for _, e := range es {
			if gap := e.off - alignUp(end); gap > 0 {
				punchHole(pk.w, alignUp(end), gap)
			}
			end = max(end, e.off+e.size)
		}
		if end < sizes[pk.n] {
			if err := pk.w.Truncate(end); err != nil {
				return err
			}
		}
		pk.tail = alignUp(end)
		if pk.tail >= packRoll {
			pk.rolled = true
		} else {
			v.idle = append(v.idle, pk)
		}
	}
	if len(raw) == 0 && len(v.packs) == 0 {
		// A fresh volume: nothing to compact.
		f, err := os.OpenFile(v.logPath(), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		v.log = f
		return err
	}
	return v.compactLog()
}

// compactLog rewrites the log as one put per live entry, oldest first,
// and opens it for appends. The rename makes the swap atomic: a crash
// mid-compaction leaves the old log, which replays to the same state.
func (v *DiskVolume) compactLog() error {
	var b []byte
	for el := v.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*diskEntry)
		b = appendRecord(b, logRec{kind: recPut, pack: e.pk.n, off: e.off, size: e.size, id: e.id})
	}
	tmp := filepath.Join(v.dir, compactTemp)
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, v.logPath()); err != nil {
		return err
	}
	f, err := os.OpenFile(v.logPath(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	v.log, v.logSize = f, int64(len(b))
	return nil
}

// Spill is an in-flight write of one dataset's bytes into the volume:
// the tail of a pack the spill holds as that pack's only appender, which
// becomes a committed extent only when Commit appends its record to the
// index log. Sequential Write/Commit/Abort are single-goroutine; WriteAt
// may be called from many goroutines at once (striped transfers),
// provided Commit/CommitVerified/Abort happen only after every writer
// has returned. The volume itself stays concurrent around spills.
//
// A spill writes at most the volume's quota — no larger entry can ever
// commit — so a write past that bound fails and poisons the spill, and
// no pack grows past packRoll plus the quota.
type Spill struct {
	v    *DiskVolume
	id   DatasetID
	pk   *pack
	base int64 // the pack's tail when the spill took it: the spill's offset 0
	n    int64 // sequential Write's cursor
	done bool

	// mu guards the state shared by concurrent WriteAt callers.
	mu    sync.Mutex
	err   error  // the first write failure: the spill is poisoned
	spans []span // byte ranges written, sorted and merged
}

// span is a written byte range [off, end) of a spill.
type span struct{ off, end int64 }

// errSpillBound poisons a spill that writes past the volume's quota.
var errSpillBound = errors.New("storage: spill write past the volume quota")

// NewSpill takes an idle pack for the dataset's bytes — creating a pack
// file only when every pack is held or rolled. The caller must finish
// with Commit or Abort.
func (v *DiskVolume) NewSpill(id DatasetID) (*Spill, error) {
	v.mu.Lock()
	var pk *pack
	if n := len(v.idle); n > 0 {
		pk = v.idle[n-1]
		v.idle = v.idle[:n-1]
		pk.busy, pk.holder = true, id
		v.mu.Unlock()
		return &Spill{v: v, id: id, pk: pk, base: pk.tail}, nil
	}
	num := v.nextPack
	v.nextPack++
	v.mu.Unlock()
	path := v.packPath(num)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: spill %q: %w", id, err)
	}
	pk = &pack{n: num, path: path, w: f, busy: true, holder: id}
	v.mu.Lock()
	v.packs[num] = pk
	v.mu.Unlock()
	return &Spill{v: v, id: id, pk: pk}, nil
}

// Write appends p after the spill's last sequential write. After the
// first error the spill is poisoned: Commit will fail, further writes
// are rejected.
func (s *Spill) Write(p []byte) (int, error) {
	n, err := s.WriteAt(p, s.n)
	s.n += int64(n)
	return n, err
}

// WriteAt writes p at offset off of the spill (pwrite). Safe for
// concurrent use by the stripes of one parallel transfer; after the
// first failure the spill is poisoned the same as Write. Every written
// range is recorded, so a commit can tell a hole from a byte.
func (s *Spill) WriteAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	err := s.err
	if err == nil && (off < 0 || off+int64(len(p)) > s.v.quota) {
		s.err, err = errSpillBound, errSpillBound
	}
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	n, err := s.pk.w.WriteAt(p, s.base+off)
	s.mu.Lock()
	if n > 0 {
		s.coverLocked(off, off+int64(n))
	}
	if err != nil && s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	return n, err
}

// coverLocked merges [off, end) into the written spans. Caller holds
// s.mu.
func (s *Spill) coverLocked(off, end int64) {
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].end >= off })
	j := i
	for ; j < len(s.spans) && s.spans[j].off <= end; j++ {
		off, end = min(off, s.spans[j].off), max(end, s.spans[j].end)
	}
	s.spans = slices.Replace(s.spans, i, j, span{off, end})
}

// Abort discards the spill: the pack is cut back to its tail and goes
// back to the idle set, and no replica appears. Abort after Commit is a
// no-op.
func (s *Spill) Abort() {
	if s.done {
		return
	}
	s.done = true
	s.v.putBack(s.pk)
}

// putBack truncates a spill's pack to its committed tail and returns
// it to the idle set.
func (v *DiskVolume) putBack(pk *pack) {
	_ = pk.w.Truncate(pk.tail)
	v.mu.Lock()
	pk.busy, pk.holder = false, ""
	v.idle = append(v.idle, pk)
	v.mu.Unlock()
}

// Commit publishes the spill as the dataset's replica iff every byte of
// [0, want) and nothing past it was written, and no write failed. On
// success the extent's record is appended to the index log, the entry
// is indexed, and LRU eviction trims the volume back under quota. On
// any failure the pack is cut back and no replica appears.
func (s *Spill) Commit(want int64) error { return s.CommitVerified(want, nil, false) }

// CommitVerified publishes the spill like Commit and, when verify is
// non-nil, hands the written bytes to it first — the replica becomes
// visible only if they pass. verify's reader is always an
// *io.SectionReader over exactly want bytes of the pack, read back
// after the last write, so a verifier may read it by offset
// (io.ReaderAt) as well as in order, and the bytes it checks are the
// bytes the commit publishes. pin marks the committed entry
// non-evictable (the origin copy of an uploaded dataset). On any
// failure, a verify error included, the pack is cut back and no
// replica appears.
func (s *Spill) CommitVerified(want int64, verify func(io.Reader) error, pin bool) error {
	if s.done {
		return fmt.Errorf("storage: spill %q already finished", s.id)
	}
	s.done = true
	s.mu.Lock()
	err := s.err
	whole := len(s.spans) == 0 && want == 0 || len(s.spans) == 1 && s.spans[0] == span{0, want}
	s.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("storage: spill %q failed: %w", s.id, err)
	} else if !whole {
		err = fmt.Errorf("storage: spill %q did not write exactly [0, %d)", s.id, want)
	} else if verify != nil {
		if verr := verify(io.NewSectionReader(s.pk.w, s.base, want)); verr != nil {
			err = fmt.Errorf("storage: spill %q rejected: %w", s.id, verr)
		}
	}
	if err != nil {
		s.v.putBack(s.pk)
		return err
	}
	return s.v.commit(s, want, pin)
}

// commit appends the extent's put record to the index log and indexes
// it. The append and the insert happen under fsMu (not v.mu), so the
// log's record order is the index's mutation order, while readers on
// v.mu never wait on the disk.
func (v *DiskVolume) commit(s *Spill, size int64, pin bool) error {
	v.fsMu.Lock()
	defer v.fsMu.Unlock()
	v.mu.Lock()
	el, dup := v.items[s.id]
	if dup && pin {
		// The racer's copy carries identical (verified) bytes; keep it and
		// take over only the pinning obligation.
		el.Value.(*diskEntry).pinned = true
	}
	v.mu.Unlock()
	if dup {
		// A racing spill/materialization committed first. Bytes are
		// content-addressed per dataset, so the existing extent is
		// identical; drop ours.
		v.putBack(s.pk)
		return nil
	}
	pk := s.pk
	if err := v.appendLog(logRec{kind: recPut, pack: pk.n, off: s.base, size: size, id: s.id}); err != nil {
		v.putBack(pk)
		return fmt.Errorf("storage: commit %q: %w", s.id, err)
	}
	var c cleanup
	v.mu.Lock()
	pk.extents++
	pk.tail = alignUp(s.base + size)
	pk.busy, pk.holder = false, ""
	if pk.tail >= packRoll {
		pk.rolled = true
	} else {
		v.idle = append(v.idle, pk)
	}
	v.insertLocked(&diskEntry{id: s.id, size: size, pinned: pin, pk: pk, off: s.base}, &c)
	v.mu.Unlock()
	v.reap(&c)
	return nil
}
