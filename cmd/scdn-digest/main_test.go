package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scdn/internal/cdnclient"
	"scdn/internal/server"
	"scdn/internal/storage"
)

// TestDigestMatchesUpload: the line scdn-digest prints for a file
// carries exactly the digest cdnclient.Upload gets back from an edge
// for the same bytes, so a raw-protocol upload can declare it.
func TestDigestMatchesUpload(t *testing.T) {
	lc, err := server.StartLocalCluster(server.ClusterConfig{
		Nodes: 1, Users: 1, NoSeedDatasets: true,
		Sweep: server.SweeperConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Shutdown(ctx)
	})
	tok, err := lc.Login(lc.UserIDs[0])
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// One byte, exactly one block, and a ragged multi-block tail.
	for i, n := range []int{1, 64 << 10, 3<<16 + 17} {
		data := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(data)
		path := filepath.Join(dir, fmt.Sprintf("data-%d.bin", i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		man, err := cdnclient.Upload(context.Background(), cdnclient.TransferOptions{
			Endpoints: []string{lc.Nodes[0].BaseURL()}, Token: string(tok), Stripes: 2,
		}, storage.DatasetID(fmt.Sprintf("dig-%d", i)), lc.Config.Group, bytes.NewReader(data), int64(n))
		if err != nil {
			t.Fatal(err)
		}

		var out bytes.Buffer
		if err := run([]string{path}, &out); err != nil {
			t.Fatal(err)
		}
		if want := man.DigestHex() + "  " + path + "\n"; out.String() != want {
			t.Fatalf("%d bytes: printed %q, want %q", n, out.String(), want)
		}
	}
}

func TestDigestMissingFile(t *testing.T) {
	err := run([]string{filepath.Join(t.TempDir(), "absent")}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "absent") {
		t.Fatalf("missing file: err = %v", err)
	}
}

// TestDigestPipe: a pipe has no size to split into blocks, so its bytes
// stream through the sequential hasher and still print the file's
// digest.
func TestDigestPipe(t *testing.T) {
	if _, err := os.Stat("/dev/fd"); err != nil {
		t.Skip("no /dev/fd")
	}
	data := make([]byte, 3<<16+17)
	rand.New(rand.NewSource(3)).Read(data)
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := run([]string{path}, &want); err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go func() {
		_, _ = w.Write(data)
		w.Close()
	}()
	pipe := fmt.Sprintf("/dev/fd/%d", r.Fd())
	var got bytes.Buffer
	if err := run([]string{pipe}, &got); err != nil {
		t.Fatal(err)
	}
	if wantLine := strings.Replace(want.String(), path, pipe, 1); got.String() != wantLine {
		t.Fatalf("pipe printed %q, want %q", got.String(), wantLine)
	}
}
