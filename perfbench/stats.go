package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// beyond is how many samples must lie past a percentile for the sample to
// support it.
const beyond = 10

// ladder lists the percentiles a tail is reported at, highest first.
var ladder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// percentile returns the nearest-rank p-quantile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// supports reports whether n samples leave at least ten beyond the
// p-quantile's rank.
func supports(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= beyond
}

// tail returns the p-quantile when the sample supports it, else the highest
// ladder percentile below p that it does support (the median when none
// does), and the percentile actually used.
func tail(sorted []float64, p float64) (float64, float64) {
	for _, q := range ladder {
		if q <= p && supports(len(sorted), q) {
			return percentile(sorted, q), q
		}
	}
	return percentile(sorted, 0.5), 0.5
}

// chunk is the sample count of one tail-latency chunk: the fewest samples
// that leave ten beyond the p99. medianChunk is the sample count of one
// median chunk: small enough that a run holds dozens, so a stretch of CPU
// steal moves few of them.
const (
	chunk       = 1000
	medianChunk = 200
)

// chunkedPercentile is the median, over consecutive chunks of chunk
// samples each, of each chunk's p-quantile, and how many chunks it pooled. A
// burst that stalls a few chunks moves it less than it moves the pooled
// quantile. With fewer than two chunks it falls back to the pooled tail,
// reporting the percentile it could support.
func chunkedPercentile(xs []float64, p float64, chunk int) (float64, float64, int) {
	if len(xs) < 2*chunk {
		v, used := tail(sortedCopy(xs), p)
		return v, used, 1
	}
	var per []float64
	for i := 0; i+chunk <= len(xs); i += chunk {
		per = append(per, percentile(sortedCopy(xs[i:i+chunk]), p))
	}
	return median(per), p, len(per)
}

// sortedCopy sorts a copy of the samples; failures (+Inf) sort last.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of unsorted values.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a reading of the Go runtime counters the per-layer
// metrics use.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes, gcCycles float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: v(0), totalCPU: v(1), allocBytes: v(2), gcCycles: v(3)}
}
