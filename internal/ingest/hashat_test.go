package ingest

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestHashAtMatchesHasher checks that the block-parallel hash builds the
// streaming Hasher's manifest, byte for byte once encoded, around every
// block boundary and at a non-default block size.
func TestHashAtMatchesHasher(t *testing.T) {
	for _, bs := range []int64{DefaultBlockSize, 1000} {
		for _, size := range []int64{0, 1, bs - 1, bs, bs + 1, 16 * bs, 16*bs + 17} {
			data := testPayload(size, int(size))
			want := manifestOf(t, "ds", data, bs)
			got, err := hashAt(bytes.NewReader(data), size, bs, "ds", true)
			if err != nil {
				t.Fatalf("bs=%d size=%d: %v", bs, size, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("bs=%d size=%d: manifest diverges from Hasher's", bs, size)
			}
			if size == 0 {
				continue // a zero-byte manifest does not encode
			}
			wantEnc, err := EncodeManifest(want)
			if err != nil {
				t.Fatal(err)
			}
			gotEnc, err := EncodeManifest(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotEnc, wantEnc) {
				t.Fatalf("bs=%d size=%d: encoded manifest diverges from Hasher's", bs, size)
			}
		}
	}
	data := testPayload(5, 3*DefaultBlockSize)
	m, err := HashAt(bytes.NewReader(data), int64(len(data)), "ds", false)
	if err != nil {
		t.Fatal(err)
	}
	if want := manifestOf(t, "ds", data, DefaultBlockSize); m.Digest != want.Digest || m.Opaque {
		t.Fatal("HashAt is not hashAt at DefaultBlockSize")
	}
}

// failingReaderAt serves data but fails the ReadAt of one block, and
// counts the ReadAt calls in flight.
type failingReaderAt struct {
	data     []byte
	failAt   int64
	err      error
	inFlight atomic.Int64
}

func (r *failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	r.inFlight.Add(1)
	defer r.inFlight.Add(-1)
	if off == r.failAt {
		return 0, r.err
	}
	return bytes.NewReader(r.data).ReadAt(p, off)
}

// TestHashAtReadErrors checks that a failed or short ReadAt partway
// through fails the hash with its cause, and that no worker is still
// reading when HashAt returns.
func TestHashAtReadErrors(t *testing.T) {
	const blocks = 16
	data := testPayload(6, blocks*DefaultBlockSize)
	boom := errors.New("boom")
	src := &failingReaderAt{data: data, failAt: 5 * DefaultBlockSize, err: boom}
	if _, err := HashAt(src, int64(len(data)), "ds", true); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the ReadAt error", err)
	}
	if n := src.inFlight.Load(); n != 0 {
		t.Fatalf("%d ReadAt calls still in flight after HashAt returned", n)
	}

	// A source shorter than the declared size.
	for _, size := range []int64{int64(len(data)) + 1, 2 * int64(len(data))} {
		if _, err := HashAt(bytes.NewReader(data), size, "ds", true); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("size=%d: err = %v, want io.ErrUnexpectedEOF", size, err)
		}
	}
	if _, err := HashAt(bytes.NewReader(data), -1, "ds", true); err == nil {
		t.Fatal("negative size hashed")
	}
}

// repeatingReaderAt is unit repeated without end, read by offset.
type repeatingReaderAt []byte

func (u repeatingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	pos := off % int64(len(u))
	for n := 0; n < len(p); pos = 0 {
		n += copy(p[n:], u[pos:])
	}
	return len(p), nil
}

// TestHashRepeatingMatchesHashAt checks that the one-block hash of a
// repeating stream builds HashAt's and the streaming Hasher's manifest
// exactly, around the unit and block boundaries and at sizes where
// every block but the tail is skipped.
func TestHashRepeatingMatchesHashAt(t *testing.T) {
	const mib = 1 << 20
	sizes := []int64{0, 1, 4095, 4096, 4097, 65535, 65536, 65537,
		3*DefaultBlockSize + 17, 4 * mib, 64*mib + 4095}
	for _, unitLen := range []int{4096, 32, 1} {
		unit := repeatingReaderAt(testPayload(int64(unitLen), unitLen))
		for _, size := range sizes {
			if unitLen != 4096 && size > 4*mib {
				continue
			}
			got, err := HashRepeating(unit, size, "ds", false)
			if err != nil {
				t.Fatalf("unit=%d size=%d: %v", unitLen, size, err)
			}
			want, err := HashAt(unit, size, "ds", false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("unit=%d size=%d: manifest diverges from HashAt's", unitLen, size)
			}
			h := NewHasher(DefaultBlockSize)
			if _, err := io.Copy(h, io.NewSectionReader(unit, 0, size)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, h.Manifest("ds", false)) {
				t.Fatalf("unit=%d size=%d: manifest diverges from Hasher's", unitLen, size)
			}
		}
	}
}

// TestHashRepeatingRejectsNonDividingUnit: a unit whose length does not
// divide the block would start each block at a different byte, so the
// hash refuses it rather than fall back to hashing every block.
func TestHashRepeatingRejectsNonDividingUnit(t *testing.T) {
	for _, n := range []int{0, 3, 4095, 4097, 2 * DefaultBlockSize} {
		if _, err := HashRepeating(make([]byte, n), DefaultBlockSize+1, "ds", false); err == nil {
			t.Fatalf("a %d-byte unit hashed", n)
		}
	}
	if _, err := HashRepeating(make([]byte, 4096), -1, "ds", false); err == nil {
		t.Fatal("negative size hashed")
	}
}

// TestParallelRunsEveryIndexOnce checks that parallel calls fn once per
// index, and that of several failing indexes it reports the lowest.
func TestParallelRunsEveryIndexOnce(t *testing.T) {
	const n = 1000
	var calls [n]atomic.Int32
	if err := parallel(n, func(i int64) error {
		calls[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}

	errs := map[int64]error{500: errors.New("at 500"), 501: errors.New("at 501"), 700: errors.New("at 700")}
	if err := parallel(n, func(i int64) error { return errs[i] }); err != errs[500] {
		t.Fatalf("err = %v, want the lowest failing index's", err)
	}
	if err := parallel(0, func(int64) error { return errors.New("ran") }); err != nil {
		t.Fatal("fn ran for n = 0")
	}
}
