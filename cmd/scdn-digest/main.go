// Command scdn-digest prints each file's S-CDN dataset digest — the
// value an upload declares in X-SCDN-Digest — in sha256sum's layout:
//
//	<lowercase hex>  <path>
//
// The dataset digest is not the plain SHA-256 of the bytes: it is the
// SHA-256 of the concatenated 64 KiB block digests (ingest.Manifest's
// Digest), computed here through the same block-parallel ingest.HashAt
// the client and the edge use. A raw-protocol upload without Go code:
//
//	DIG=$(scdn-digest data.bin | cut -d' ' -f1)
//	curl -X PUT $EDGE/v1/datasets/my-data -H "Authorization: Bearer $TOK" \
//	     -H "X-SCDN-Digest: $DIG" -H "X-SCDN-Group: my-group" --data-binary @data.bin
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"scdn/internal/ingest"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scdn-digest:", err)
		os.Exit(1)
	}
}

// run prints one digest line per path.
func run(paths []string, stdout io.Writer) error {
	if len(paths) == 0 {
		return errors.New("usage: scdn-digest FILE...")
	}
	for _, p := range paths {
		hex, err := digestHex(p)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "%s  %s\n", hex, p); err != nil {
			return err
		}
	}
	return nil
}

// digestHex hashes one file's blocks on every core (a pipe's in one
// stream) and returns its dataset digest in lowercase hex.
func digestHex(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return "", err
	}
	if !info.Mode().IsRegular() {
		// A pipe or device has no size to split into blocks: stream it.
		h := ingest.NewHasher(ingest.DefaultBlockSize)
		if _, err := io.Copy(h, f); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
		return h.Manifest("scdn-digest", true).DigestHex(), nil
	}
	m, err := ingest.HashAt(f, info.Size(), "scdn-digest", true)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return m.DigestHex(), nil
}
