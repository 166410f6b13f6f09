package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// tail summarizes a latency sample: its median, its 95th percentile, the
// number of samples, and how many samples lie beyond the 95th percentile.
// A percentile is worth reporting only when at least ten samples lie
// beyond it; Beyond lets the caller say so.
type tail struct {
	N      int
	P50    float64
	P95    float64
	Beyond int // samples strictly above the p95 rank
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// and its 1-based rank. An empty sample yields (0, 0).
func percentile(sorted []float64, q float64) (float64, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], rank
}

// summarize sorts a copy of xs and reports its median and p95.
func summarize(xs []float64) tail {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p50, _ := percentile(s, 0.50)
	p95, rank := percentile(s, 0.95)
	return tail{N: len(s), P50: p50, P95: p95, Beyond: len(s) - rank}
}

// median of xs (nearest rank); 0 for an empty sample.
func median(xs []float64) float64 { return summarize(xs).P50 }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// slope is the least-squares slope of ys against xs; 0 when xs has no
// spread.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// meter brackets a measured phase: wall time, process CPU time
// (getrusage user+sys) and bytes allocated by the Go heap.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

type reading struct {
	Wall  time.Duration
	CPU   time.Duration
	Alloc uint64
}

func (r *reading) add(o reading) {
	r.Wall += o.Wall
	r.CPU += o.CPU
	r.Alloc += o.Alloc
}

func startMeter() meter {
	return meter{wall: time.Now(), cpu: cpuTime(), alloc: totalAlloc()}
}

func (m meter) stop() reading {
	return reading{Wall: time.Since(m.wall), CPU: cpuTime() - m.cpu, Alloc: totalAlloc() - m.alloc}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
