package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/telemetry"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of xs; 0 when xs
// is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is quantile(xs, 0.5) with the two middle samples averaged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spreads this program reports match the ones the benchmark is
// judged by. With fewer than two samples both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// percentile pairs a percentile with the number of samples per sample
// left beyond it (1/(1-p)), kept integral so that 99.9 is exact.
type percentile struct {
	p   float64
	inv int
}

var percentiles = []percentile{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailPercentile returns the highest standard percentile that leaves at
// least ten of n samples beyond it — the highest tail the sample count
// supports — or 0 when n is too small even for the median.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, pc := range percentiles {
		if n/pc.inv >= 10 {
			best = pc.p
		}
	}
	return best
}

// interval is one span of wall time, [start, end).
type interval struct{ start, end time.Time }

// selfTime is the part of parent that none of children covers: its
// length minus the union of the children, each clipped to parent.
// Overlapping children are counted once.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return parent.end.Sub(parent.start) - covered
}

// ms, us and secs convert durations to the float units the metrics use.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// durations converts a slice of durations with f.
func durations(ds []time.Duration, f func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = f(d)
	}
	return out
}

// histQuantile estimates the q-quantile of a telemetry histogram in its
// recorded unit, interpolating within the power-of-two bucket that holds
// it (bucket i holds values in (2^(i-1), 2^i]).
func histQuantile(s telemetry.HistSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = math.Ldexp(1, i-1)
			}
			hi := math.Ldexp(1, i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return math.Ldexp(1, len(s.Counts)) // past the last finite bucket
}

// mergeHist adds two histogram snapshots.
func mergeHist(a, b telemetry.HistSnapshot) telemetry.HistSnapshot {
	for i := range a.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Inf += b.Inf
	a.Sum += b.Sum
	a.Count += b.Count
	return a
}

// CPU clocks. On a virtual machine the wall clock also runs while the
// hypervisor has taken the CPU away (steal time), which swings wall
// timings by a fifth from one minute to the next; a kernel that accounts
// steal separately leaves it out of these.

// cpuTime is the CPU time this process has used, all threads.
func cpuTime() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling thread has used; callers lock
// their goroutine to its thread first.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// Linux's CPU-time clock IDs, which syscall does not name.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads a CPU-time clock with clock_gettime, which is exact to
// the nanosecond where getrusage lags by up to a scheduler tick.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// Steal. The CPU clocks leave out every wait — a lock, an fsync, a
// queue — so the wait-sensitive timings stay on the wall clock, less
// the time the hypervisor took the machine's CPUs away over the same
// interval.

// stealTime is the wall time the hypervisor has taken from an average
// CPU of this machine since boot, read from /proc/stat. It is 0 where
// the kernel does not report steal. The process runs on every CPU, so
// the steal over an interval is the wall time the process lost in it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(b)
}

// parseSteal averages the steal column of the per-CPU lines of a
// /proc/stat file:
//
//	cpuN user nice system idle iowait irq softirq steal ...
func parseSteal(stat []byte) time.Duration {
	var ticks, cpus int64
	for _, line := range bytes.Split(stat, []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) < 9 || !bytes.HasPrefix(f[0], []byte("cpu")) || len(f[0]) == len("cpu") {
			continue
		}
		n, err := strconv.ParseInt(string(f[8]), 10, 64)
		if err != nil {
			return 0
		}
		ticks += n
		cpus++
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ / time.Duration(cpus)
}

// userHZ is the unit of /proc/stat, fixed by the kernel's ABI.
const userHZ = 100
