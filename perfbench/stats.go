package main

import (
	"bufio"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p90 from fewer than ten slower samples is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// samples and how many samples lie strictly beyond its rank. ok is false
// when fewer than minBeyond samples lie beyond it, so it must not be
// reported.
func percentile(samples []float64, q float64) (v float64, beyond int, ok bool) {
	if len(samples) == 0 {
		return 0, 0, false
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := int(q*float64(len(s)) + 0.999999999) // ceil, robust to q*n rounding
	rank = max(1, min(rank, len(s)))
	beyond = len(s) - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// median is the middle sample (the mean of the two middle ones for an even
// count).
func median(samples []float64) float64 {
	_, m, _ := quartiles(samples)
	return m
}

// mean is the arithmetic mean of the samples (0 for none).
func mean(samples []float64) float64 {
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return ratio(sum, float64(len(samples)))
}

// quartiles returns the first quartile, median and third quartile exactly
// as Python's statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method, extrapolating for tiny samples), which is what the
// benchmark's acceptance rule uses.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	s := slices.Clone(samples)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSteal reads the machine-wide stolen and total CPU time from
// /proc/stat, in clock ticks (zeros where procfs is unavailable).
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line) // "cpu" user nice system idle iowait irq softirq steal ...
	for i, f := range fields[1:min(len(fields), 9)] {
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

// resetPeakRSS returns as much memory to the OS as the runtime can and
// resets the kernel's resident-set high-water mark to the current resident
// set, so the next peakRSSMB reads the peak of what runs in between. Where
// the kernel does not support the reset the high-water mark simply keeps
// the process-wide peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's peak resident set in MiB: VmHWM from
// /proc/self/status, which belongs to this program image alone, falling
// back to getrusage's ru_maxrss where procfs is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
