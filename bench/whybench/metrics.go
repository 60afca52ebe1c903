package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// percentile returns the p-quantile (0 < p ≤ 1) of an ascending slice by the
// nearest-rank rule: the smallest value with at least p·n values at or
// below it. An empty slice yields NaN.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// supports reports whether n samples carry the p-quantile: a percentile is
// only reported as such when at least ten samples lie beyond it.
func supports(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= 10
}

// dist summarises one timing: median, the tail percentile, and the sample
// count that says how far the tail can be trusted.
type dist struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	// TailOK is false when fewer than ten samples lie beyond P99.
	TailOK bool `json:"tailOk"`
}

func summarize(xs []float64) dist {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return dist{
		N: len(sorted), P50: percentile(sorted, 0.5), P99: percentile(sorted, 0.99),
		TailOK: supports(len(sorted), 0.99),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuClock reads a process's CPU-time clock — user and system time of all its
// threads, those that have exited included — in seconds; pid 0 is the harness
// itself. It is the clock behind clock_getcpuclockid(3): the scheduler's own
// nanosecond accounting, where utime and stime in /proc/<pid>/stat are counted
// in 10 ms ticks and sampled at the tick, which a process that runs for 50 µs
// at a time (the load generator) mostly slips through.
func cpuClock(pid int) (float64, error) {
	id := uintptr(2) // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		id = uintptr(uint32(^pid)<<3 | 2) // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	}
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("reading the CPU clock of process %d: %w", pid, errno)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
