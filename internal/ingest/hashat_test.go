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
