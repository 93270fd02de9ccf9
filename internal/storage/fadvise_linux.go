//go:build linux && (amd64 || arm64)

package storage

import (
	"os"
	"syscall"
)

// posix_fadvise advice values (uapi/linux/fadvise.h). The raw syscall
// keeps the module dependency-free; on 64-bit Linux SYS_FADVISE64
// takes (fd, offset, len, advice) directly.
const (
	fadvSequential = 2 // POSIX_FADV_SEQUENTIAL
	fadvDontNeed   = 4 // POSIX_FADV_DONTNEED
)

func fadvise(f *os.File, off, length int64, advice int) bool {
	if f == nil {
		return false
	}
	_, _, errno := syscall.Syscall6(syscall.SYS_FADVISE64,
		f.Fd(), uintptr(off), uintptr(length), uintptr(advice), 0, 0)
	return errno == 0
}

// FadviseSequential hints that h's descriptor will be read
// sequentially, letting the kernel widen its readahead window for it.
// Reports whether the advice was applied.
func FadviseSequential(h *Handle) bool {
	return fadvise(h.f, 0, 0, fadvSequential)
}

// FadviseDontNeed drops the cached pages of h's extent, and only of
// that extent — the rest of the pack belongs to other entries.
// Page-cache hygiene behind a completed sequential serve, so one giant
// transfer stops evicting the warm small-object working set. Reports
// whether the advice was applied.
func FadviseDontNeed(h *Handle) bool {
	if h.e.size == 0 {
		return false // length 0 would mean the whole pack
	}
	return fadvise(h.f, h.e.off, h.e.size, fadvDontNeed)
}
