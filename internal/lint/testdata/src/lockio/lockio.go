// Package lockio exercises the lockio analyzer: blocking I/O inside a
// mutex critical section is a finding; I/O after an unlock (explicit,
// even in a branch) and goroutine bodies are not.
package lockio

import (
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"
)

type store struct {
	mu sync.Mutex
	f  *os.File
}

// sleepUnderLock blocks inside the critical section.
func (s *store) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep"
	s.mu.Unlock()
}

// renameUnderDeferredLock: a deferred unlock holds to function end, so
// the rename runs locked.
func (s *store) renameUnderDeferredLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.Rename("a", "b") // want "os.Rename"
}

// writeUnderLock: file I/O on a pooled handle inside the section.
func (s *store) writeUnderLock(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Write(p) // want "os.File.Write"
}

type cache struct {
	mu sync.RWMutex
	c  *http.Client
}

// httpUnderLock: an outbound HTTP call while holding a read lock.
func (c *cache) httpUnderLock() error {
	c.mu.RLock()
	resp, err := c.c.Get("http://example.com") // want "http.Client.Get"
	c.mu.RUnlock()
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// unlockThenIO releases before the I/O — clean.
func (s *store) unlockThenIO() error {
	s.mu.Lock()
	s.mu.Unlock()
	return os.Remove("a")
}

// branchUnlockThenIO: each branch unlocks (one via the shared tail)
// before its own I/O — clean.
func (s *store) branchUnlockThenIO(cond bool) error {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return os.Remove("a")
	}
	s.mu.Unlock()
	return os.Remove("b")
}

// goAsync: a spawned goroutine does not hold this goroutine's locks —
// clean.
func (s *store) goAsync() {
	s.mu.Lock()
	go func() {
		_ = os.Remove("c")
	}()
	s.mu.Unlock()
}

// punchUnderLock frees blocks of a file inside the section.
func (s *store) punchUnderLock(fd int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return syscall.Fallocate(fd, 0x3, 0, 4096) // want "syscall.Fallocate"
}

// syncUnderLock flushes inside the section, both ways.
func (s *store) syncUnderLock(fd int) error {
	s.mu.Lock()
	err := syscall.Fsync(fd) // want "syscall.Fsync"
	if err == nil {
		err = syscall.Fdatasync(fd) // want "syscall.Fdatasync"
	}
	s.mu.Unlock()
	return err
}

// positionedIOUnderLock reads and writes by offset inside the section.
func (s *store) positionedIOUnderLock(fd int, p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := syscall.Pread(fd, p, 0); err != nil { // want "syscall.Pread"
		return err
	}
	_, err := syscall.Pwrite(fd, p, 0) // want "syscall.Pwrite"
	return err
}

// punchAfterUnlock decides under the lock and punches after it — clean.
func (s *store) punchAfterUnlock(fd int) error {
	s.mu.Lock()
	off := int64(4096)
	s.mu.Unlock()
	return syscall.Fallocate(fd, 0x3, off, 4096)
}
