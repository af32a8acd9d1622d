package main

import (
	"bufio"
	"crypto/sha256"
	"math/bits"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hist is a log-linear latency histogram: exact below 128 ns, then 128
// sub-buckets per power of two (under 1 % resolution) up to 2^40 ns, in
// fixed memory so recording allocates nothing. It is not safe for
// concurrent use.
type hist struct {
	n       uint64
	buckets [histSub + (histMaxBits-histSubBits)*histSub]uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxBits = 40
)

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	ns = min(ns, 1<<histMaxBits-1)
	e := bits.Len64(ns) - 1 // histSubBits ≤ e < histMaxBits
	return histSub + (e-histSubBits)*histSub + int((ns>>(e-histSubBits))&(histSub-1))
}

// histLower is the smallest value of bucket b, histWidth its width.
func histLower(b int) uint64 {
	if b < histSub {
		return uint64(b)
	}
	shift := (b - histSub) / histSub
	return uint64(histSub+(b-histSub)%histSub) << shift
}

func histWidth(b int) uint64 {
	if b < histSub {
		return 1
	}
	return 1 << ((b - histSub) / histSub)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[histBucket(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// sub returns the samples recorded in h since the copy o was taken.
func (h hist) sub(o *hist) hist {
	h.n -= o.n
	for i, c := range o.buckets {
		h.buckets[i] -= c
	}
	return h
}

// quantile returns the midpoint of the bucket holding quantile q (nearest
// rank).
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n-1) + 0.5)
	var seen uint64
	for b, c := range h.buckets {
		seen += c
		if seen > rank {
			return time.Duration(histLower(b) + histWidth(b)/2)
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample reads the runtime counters a window delta is taken over.
type rtSample struct {
	allocs, allocBytes  uint64
	gcCPU, cpu, idleCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		cpu:        s[3].Value.Float64(),
		idleCPU:    s[4].Value.Float64(),
	}
}

// gcShare is the GC's share of the non-idle CPU time between two samples.
func gcShare(a, b rtSample) float64 {
	busy := (b.cpu - a.cpu) - (b.idleCPU - a.idleCPU)
	if busy <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / busy
}

// Environment diagnostics. They are printed beside each run's result and
// never folded into a metric: they tell a reader whether the machine was
// quiet, nothing more.

// stealJiffies returns the machine-wide steal and total jiffies from
// /proc/stat (zeros where it is unavailable).
func stealJiffies() (steal, total uint64) {
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
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// calibrate times a fixed single-threaded SHA-256 and map workload.
func calibrate() time.Duration {
	start := time.Now()
	m := make(map[uint64]uint64, 1<<16)
	var sum [32]byte
	for i := 0; i < 1<<17; i++ {
		sum = sha256.Sum256(sum[:])
		k := uint64(sum[0]) | uint64(sum[1])<<8 | uint64(sum[2])<<16
		m[k] += uint64(i)
	}
	if len(m) == 0 {
		panic("unreachable")
	}
	return time.Since(start)
}
