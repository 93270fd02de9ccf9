//go:build linux

package storage

import (
	"os"
	"syscall"
)

// fallocate(2) modes (uapi/linux/falloc.h).
const (
	fallocKeepSize  = 0x01 // FALLOC_FL_KEEP_SIZE
	fallocPunchHole = 0x02 // FALLOC_FL_PUNCH_HOLE
)

// punchHole frees the blocks under [off, off+n) of a pack without
// changing its size; the range reads back as zeros. Best effort: a
// filesystem without hole punching keeps the bytes, which no index
// entry references any more. The descriptor is borrowed through
// SyscallConn, so a concurrent Close cannot hand its number to another
// file mid-call.
func punchHole(f *os.File, off, n int64) {
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.Fallocate(int(fd), fallocPunchHole|fallocKeepSize, off, n)
	})
}
