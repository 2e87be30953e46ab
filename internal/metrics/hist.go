// Package metrics provides the latency histogram behind mcfsd's
// per-endpoint request latencies: the quantiles in /stats and the
// cumulative buckets in /metrics.
package metrics

import (
	"math/bits"
	"time"
)

// histSub is the number of linear sub-buckets per power-of-two range.
// Eight sub-buckets bound the quantile estimation error at ~12.5% of the
// value, which is plenty for p50/p99 latency reporting.
const histSub = 8

// histBuckets covers durations up to ~2^40 ns (~18 minutes) with one
// power-of-two range per exponent; observations beyond the last range
// clamp into it.
const histBuckets = 41 * histSub

// Histogram accumulates durations into log-linear buckets. The zero
// value is ready to use. It is not safe for concurrent use; guard it
// with a mutex.
type Histogram struct {
	counts [histBuckets]int64
	count  int64
	sum    int64
	max    int64
}

// bucketOf maps a non-negative nanosecond reading to its bucket index.
func bucketOf(ns int64) int {
	if ns < histSub {
		return int(ns) // the first ranges are exact
	}
	exp := bits.Len64(uint64(ns)) - 1 // floor(log2 ns) >= 3
	frac := (ns >> (exp - 3)) & (histSub - 1)
	idx := (exp-2)*histSub + int(frac)
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// lowerBound returns the smallest nanosecond reading mapped to bucket i
// (the inverse of bucketOf on range starts).
func lowerBound(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := i/histSub + 2
	frac := int64(i % histSub)
	return (1 << exp) + frac<<(exp-3)
}

// Observe records one duration; negative readings clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the total of all observed durations in nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum }

// Bucket is one step of a cumulative histogram export: Cumulative
// observations were at most UpperNS nanoseconds. The shape matches
// Prometheus's cumulative `le` buckets, which is what the /metrics
// exposition renders from it.
type Bucket struct {
	UpperNS    int64 // inclusive upper bound of the bucket, in ns
	Cumulative int64 // observations at or below UpperNS
}

// Buckets exports the histogram as cumulative (upper bound, count)
// pairs in increasing bound order. Empty leading/trailing ranges are
// skipped, but every bucket that changes the cumulative count appears,
// so the export reconstructs the exact per-bucket counts. The final
// bucket (when any observations exist) carries the full Count, with the
// last range's clamp semantics: its bound covers everything recorded.
func (h *Histogram) Buckets() []Bucket {
	if h.count == 0 {
		return nil
	}
	out := make([]Bucket, 0, 16)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, Bucket{UpperNS: lowerBound(i+1) - 1, Cumulative: cum})
	}
	return out
}

// Mean returns the average observed duration (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns an upper estimate of the q-quantile (q in [0,1]):
// the lower bound of the first bucket whose cumulative count reaches
// q·Count, plus one sub-bucket width, clamped to the exact observed
// maximum (so a high quantile never reads above Max). Returns 0 on an
// empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			width := lowerBound(i+1) - lowerBound(i)
			if width < 1 {
				width = 1
			}
			est := lowerBound(i) + width - 1
			if est > h.max {
				est = h.max
			}
			return time.Duration(est)
		}
	}
	return time.Duration(h.max)
}
