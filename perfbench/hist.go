package main

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// A latency histogram keeps a window's latencies in fixed memory, so
// the benchmark's own bookkeeping does not grow with the number of ops
// and does not show in peak_rss_mb. Latencies below 128 ns have a
// bucket per nanosecond; above, each power of two is cut into 128
// buckets, so a quantile is within 0.8% of the exact sample quantile.
const (
	histSub     = 128
	histMaxExp  = 40 // 2^41 ns ≈ 37 min: longer latencies share the last bucket
	histBuckets = (histMaxExp-6)*histSub + histSub
)

// hist counts latencies; record is safe for concurrent use.
type hist struct {
	counts [histBuckets]atomic.Uint32
	n      atomic.Int64
}

// bucket is the index of latency v (in nanoseconds).
func bucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1
	if e > histMaxExp {
		return histBuckets - 1
	}
	return (e-6)*histSub + int(v>>(e-7)) - histSub
}

// bounds is bucket i's range of latencies [lo, hi) in nanoseconds.
func bounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	shift := i/histSub - 1
	lo = float64(uint64(i%histSub+histSub) << shift)
	return lo, lo + float64(uint64(1)<<shift)
}

func (h *hist) record(d time.Duration) {
	h.counts[bucket(uint64(max(d, 0)))].Add(1)
	h.n.Add(1)
}

// quantile is the q-quantile in seconds, ranked as quantile ranks a
// sorted sample and placed evenly inside its bucket.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c > 0 && rank < cum+c {
			lo, hi := bounds(i)
			return (lo + (hi-lo)*(rank-cum+0.5)/c) / 1e9
		}
		cum += c
	}
	lo, hi := bounds(histBuckets - 1)
	return (lo + hi) / 2 / 1e9
}
