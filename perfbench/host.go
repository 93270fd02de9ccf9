package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// procSample is the process and host state read once before and once
// after a measured phase, so collecting it costs nothing while the phase
// runs.
type procSample struct {
	cpuNs      int64  // user+sys CPU of this process (getrusage)
	syscalls   uint64 // syscr+syscw from /proc/self/io
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	steal      uint64 // /proc/stat aggregate steal ticks
	cpuTicks   uint64 // /proc/stat aggregate ticks, steal included
}

// add accumulates b into s, for totals over several phases.
func (s *procSample) add(b procSample) {
	s.cpuNs += b.cpuNs
	s.syscalls += b.syscalls
	s.mallocs += b.mallocs
	s.allocBytes += b.allocBytes
	s.numGC += b.numGC
	s.steal += b.steal
	s.cpuTicks += b.cpuTicks
}

func takeProcSample() procSample {
	var s procSample
	s.cpuNs = processCPUNs()
	s.syscalls = procIOSyscalls()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes, s.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	s.steal, s.cpuTicks = procStatSteal()
	return s
}

// processCPUNs returns this process's user+system CPU time.
func processCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// procIOSyscalls returns the read plus write syscall count of this
// process, or 0 where /proc/self/io is unavailable.
func procIOSyscalls() uint64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var n uint64
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || (k != "syscr" && k != "syscw") {
			continue
		}
		c, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err == nil {
			n += c
		}
	}
	return n
}

// procStatSteal returns the host-wide steal ticks and total ticks from
// the aggregate cpu line of /proc/stat (zeros where it is unavailable).
func procStatSteal() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already inside user, so only the first eight count.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the host's CPU steal share between two samples, in percent.
func stealPct(before, after procSample) float64 {
	dt := after.cpuTicks - before.cpuTicks
	if dt == 0 {
		return 0
	}
	return 100 * float64(after.steal-before.steal) / float64(dt)
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// hostBlock describes where a run was taken, so an outlier can be
// explained. It is reported beside the metrics, never used to adjust
// or drop them.
type hostBlock struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StoreFS    string  `json:"store_fs"`
	StealPct   float64 `json:"steal_pct"`
	Clients    int     `json:"clients"`
}

func newHostBlock(clients int) hostBlock {
	return hostBlock{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Clients:    clients,
	}
}

// ramBacked reports whether a filesystem keeps its files in memory.
func ramBacked(fs string) bool { return fs == "tmpfs" }
