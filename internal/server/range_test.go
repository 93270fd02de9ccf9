package server

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestParseRange(t *testing.T) {
	const total = 10000
	cases := []struct {
		h       string
		off, n  int64
		isRange bool
		wantErr bool
	}{
		{"", 0, total, false, false},
		{"bytes=0-4095", 0, 4096, true, false},
		{"bytes=4096-8191", 4096, 4096, true, false},
		{"bytes=9999-9999", 9999, 1, true, false}, // last byte
		{"bytes=0-0", 0, 1, true, false},          // first byte
		{"bytes=500-", 500, total - 500, true, false},
		{"bytes=0-99999", 0, total, true, false}, // end clipped
		{"bytes=-100", total - 100, 100, true, false},
		{"bytes=-99999", 0, total, true, false}, // suffix clipped
		// Malformed.
		{"bytes=", 0, 0, false, true},
		{"bytes=abc-def", 0, 0, false, true},
		{"bytes=5", 0, 0, false, true},
		{"bytes=9-5", 0, 0, false, true},
		{"bytes=-0", 0, 0, false, true},
		{"items=0-5", 0, 0, false, true}, // unknown unit
		// Unsatisfiable.
		{"bytes=10000-", 0, 0, false, true},
		{"bytes=10001-10005", 0, 0, false, true},
	}
	for _, tc := range cases {
		rngs, isRange, err := parseRanges(nil, tc.h, total)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseRanges(%q): want error, got %+v", tc.h, rngs)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseRanges(%q): %v", tc.h, err)
			continue
		}
		if len(rngs) != 1 || rngs[0].off != tc.off || rngs[0].n != tc.n || isRange != tc.isRange {
			t.Errorf("parseRanges(%q) = %+v range=%v, want [{off %d, n %d}] range=%v",
				tc.h, rngs, isRange, tc.off, tc.n, tc.isRange)
		}
	}
}

func TestParseRanges(t *testing.T) {
	const total = 10000
	type br = byteRange
	cases := []struct {
		h       string
		want    []br
		isRange bool
		wantErr bool
	}{
		{"", []br{{0, total}}, false, false},
		{"bytes=0-99", []br{{0, 100}}, true, false},
		// Multipart: sorted by offset on the way out.
		{"bytes=0-99,200-299", []br{{0, 100}, {200, 100}}, true, false},
		{"bytes=200-299,0-99", []br{{0, 100}, {200, 100}}, true, false},
		// Whitespace around parts is tolerated (RFC 7233 list syntax).
		{"bytes=0-99, 200-299", []br{{0, 100}, {200, 100}}, true, false},
		// Overlap and adjacency merge into one part.
		{"bytes=0-99,50-149", []br{{0, 150}}, true, false},
		{"bytes=0-99,100-199", []br{{0, 200}}, true, false},
		{"bytes=0-99,0-99", []br{{0, 100}}, true, false},
		// Containment collapses too.
		{"bytes=0-999,100-199", []br{{0, 1000}}, true, false},
		// Suffix and open-ended parts participate in merging.
		{"bytes=0-99,-100", []br{{0, 100}, {total - 100, 100}}, true, false},
		{"bytes=9000-,-2000", []br{{8000, 2000}}, true, false},
		// One malformed or unsatisfiable part poisons the whole set.
		{"bytes=0-99,oops", nil, false, true},
		{"bytes=0-99,9-5", nil, false, true},
		{"bytes=0-99,10000-", nil, false, true},
		{"bytes=0-99,,200-299", nil, false, true},
	}
	for _, tc := range cases {
		got, isRange, err := parseRanges(nil, tc.h, total)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseRanges(%q): want error, got %+v", tc.h, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseRanges(%q): %v", tc.h, err)
			continue
		}
		if isRange != tc.isRange || len(got) != len(tc.want) {
			t.Errorf("parseRanges(%q) = %+v range=%v, want %+v range=%v", tc.h, got, isRange, tc.want, tc.isRange)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parseRanges(%q)[%d] = %+v, want %+v", tc.h, i, got[i], tc.want[i])
			}
		}
	}
}

func TestParseRangesPartCap(t *testing.T) {
	const total = 100000
	h := "bytes=0-0"
	for i := 1; i < maxRangeParts; i++ {
		h += fmt.Sprintf(",%d-%d", i*10, i*10)
	}
	if got, _, err := parseRanges(nil, h, total); err != nil || len(got) != maxRangeParts {
		t.Fatalf("at-cap spec rejected: %v (%d parts)", err, len(got))
	}
	h += fmt.Sprintf(",%d-%d", maxRangeParts*10, maxRangeParts*10)
	if _, _, err := parseRanges(nil, h, total); err == nil {
		t.Fatal("over-cap spec accepted")
	}
}

// TestWritePayloadRangeBoundaries checks range copies out of the
// payload block at every block boundary case: offset 0, mid-block, across blocks, the last byte, and
// the empty range.
func TestWritePayloadRangeBoundaries(t *testing.T) {
	const id = "ds-range"
	const total = 3*payloadBlockSize + 17
	var whole bytes.Buffer
	if _, err := WritePayload(&whole, id, total); err != nil {
		t.Fatal(err)
	}
	ref := whole.Bytes()
	block := payloadBlock(id)

	cases := []struct{ off, n int64 }{
		{0, total},                           // full body as a range
		{0, 1},                               // first byte
		{0, payloadBlockSize},                // exactly one block
		{payloadBlockSize, payloadBlockSize}, // block-aligned interior
		{1000, 1},                            // single mid-block byte
		{1000, payloadBlockSize},             // mid-block start crossing a boundary
		{payloadBlockSize - 1, 2},            // straddles a block edge
		{total - 1, 1},                       // last byte
		{total - 17, 17},                     // trailing partial block
		{500, 0},                             // empty range writes nothing
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		written, err := copyBuffered(&buf, io.NewSectionReader(block, tc.off, tc.n))
		if err != nil {
			t.Fatalf("range %d+%d: %v", tc.off, tc.n, err)
		}
		if written != tc.n {
			t.Fatalf("range %d+%d wrote %d bytes", tc.off, tc.n, written)
		}
		if !bytes.Equal(buf.Bytes(), ref[tc.off:tc.off+tc.n]) {
			t.Fatalf("range %d+%d bytes diverge from whole payload", tc.off, tc.n)
		}
	}
}

func TestRangeVerifier(t *testing.T) {
	const id = "ds-verify"
	const off, n = 5000, 3000
	var buf bytes.Buffer
	if _, err := copyBuffered(&buf, io.NewSectionReader(payloadBlock(id), off, n)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	v := NewRangeVerifier(id, off, n)
	if _, err := v.Write(good); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncated: missing bytes surface on Close.
	v = NewRangeVerifier(id, off, n)
	if _, err := v.Write(good[:n-10]); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation not detected: %v", err)
	}

	// Corrupt byte mid-stream.
	bad := append([]byte(nil), good...)
	bad[1234] ^= 0xff
	v = NewRangeVerifier(id, off, n)
	if _, err := v.Write(bad); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corruption not detected: %v", err)
	}

	// Surplus bytes rejected.
	v = NewRangeVerifier(id, off, n)
	if _, err := v.Write(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("surplus byte accepted")
	}

	// Wrong offset means wrong expected bytes.
	v = NewRangeVerifier(id, off+1, n)
	if _, err := v.Write(good); err == nil {
		t.Fatal("offset-shifted stream verified")
	}
}
