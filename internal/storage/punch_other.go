//go:build !linux

package storage

import "os"

// punchHole is Linux-only; elsewhere a dead extent keeps its blocks
// until its pack is unlinked.
func punchHole(*os.File, int64, int64) {}
