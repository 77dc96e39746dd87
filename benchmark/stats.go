package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of values by the
// nearest-rank rule; 0 for an empty slice. values is sorted in place.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	rank := int(math.Ceil(p / 100 * float64(len(values))))
	if rank < 1 {
		rank = 1
	}
	return values[rank-1]
}

// median is the interpolating median (the one the driver takes over runs),
// computed on a copy.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the f-quantile (0..1) of values, interpolating between
// the two nearest ranks; 0 for an empty slice. It works on a copy.
func quantile(values []float64, f float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := f * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartileSpread is the distance between the first and third quartile of
// values as a share of their median — the spread the driver computes with
// Python's statistics.quantiles(values, n=4) (exclusive method).
func quartileSpread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(sorted)+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return sorted[0]
		}
		if lo >= len(sorted) {
			return sorted[len(sorted)-1]
		}
		return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// processCPU reports the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resources is a snapshot of the process-wide costs a run is charged.
type resources struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
}

func readResources() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{cpu: processCPU(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}

func (r resources) since(base resources) resources {
	return resources{
		cpu:        r.cpu - base.cpu,
		mallocs:    r.mallocs - base.mallocs,
		allocBytes: r.allocBytes - base.allocBytes,
	}
}

// envInfo records where a result was taken.
type envInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Links      string `json:"links"`
}

func readEnv() envInfo {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Links:      "in-process pipes / host loopback TCP, no real link",
	}
}

// binomialTail returns P[X >= k] for X ~ Binomial(n, p).
func binomialTail(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	// Sum the point masses from k upward in log space; terms fall off fast
	// for the small p the conformance phase sees.
	var tail float64
	lg, _ := math.Lgamma(float64(n + 1))
	for i := k; i <= n; i++ {
		li, _ := math.Lgamma(float64(i + 1))
		lni, _ := math.Lgamma(float64(n - i + 1))
		logMass := lg - li - lni
		if p > 0 {
			logMass += float64(i) * math.Log(p)
		} else if i > 0 {
			continue
		}
		if p < 1 {
			logMass += float64(n-i) * math.Log1p(-p)
		} else if i < n {
			continue
		}
		tail += math.Exp(logMass)
	}
	return math.Min(tail, 1)
}

// fourSigmaTail is the one-sided tail mass of a normal variable beyond four
// standard deviations: the band the conformance phase allows the cheater's
// escape count around its binomial expectation, applied to the exact
// binomial tails because n·p is far too small for the normal approximation.
const fourSigmaTail = 3.17e-5

// withinBinomialBand reports whether k successes in n trials of probability
// p lie inside the two-sided four-sigma-equivalent band.
func withinBinomialBand(n, k int, p float64) bool {
	upper := binomialTail(n, k, p)       // P[X >= k]
	lower := 1 - binomialTail(n, k+1, p) // P[X <= k]
	return upper >= fourSigmaTail && lower >= fourSigmaTail
}
