//go:build !(linux && (amd64 || arm64))

package storage

// posix_fadvise is Linux-only; elsewhere the hints are no-ops and
// report not-applied so callers' counters stay honest.

// FadviseSequential hints sequential access on platforms that support
// it. No-op here.
func FadviseSequential(*Handle) bool { return false }

// FadviseDontNeed drops cached pages on platforms that support it.
// No-op here.
func FadviseDontNeed(*Handle) bool { return false }
