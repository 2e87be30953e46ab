package metrics

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistogramExactSmall(t *testing.T) {
	var h Histogram
	for i := 0; i < 8; i++ {
		h.Observe(time.Duration(i))
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if h.Max() != 7 {
		t.Fatalf("max = %d, want 7", h.Max())
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("q0 = %d, want 0", got)
	}
	if got := h.Quantile(1); got != 7 {
		t.Fatalf("q1 = %d, want 7", got)
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and
	// bucket indexes must be monotone in the observed value.
	for i := 0; i < histBuckets; i++ {
		if got := bucketOf(lowerBound(i)); got != i {
			t.Fatalf("bucketOf(lowerBound(%d)) = %d", i, got)
		}
	}
	prev := -1
	for ns := int64(0); ns < 1<<20; ns += 137 {
		b := bucketOf(ns)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", ns, b, prev)
		}
		prev = b
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	var raw []int64
	for i := 0; i < 20000; i++ {
		// Latency-shaped: mostly microseconds, a long tail to ~100ms.
		ns := int64(1000 + rng.ExpFloat64()*float64(50*time.Microsecond))
		if rng.Intn(100) == 0 {
			ns += int64(rng.Intn(int(100 * time.Millisecond)))
		}
		raw = append(raw, ns)
		h.Observe(time.Duration(ns))
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := raw[int(q*float64(len(raw)))-1]
		got := int64(h.Quantile(q))
		// The log-linear buckets bound the error at one sub-bucket width
		// (~12.5%); allow a little slack for the rank rounding.
		if got < exact-exact/4 || got > exact+exact/4+1 {
			t.Fatalf("q%.2f = %d, exact %d (off by more than 25%%)", q, got, exact)
		}
	}
}

func TestHistogramClampAndEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-time.Second) // clamps to zero
	h.Observe(48 * time.Hour)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Quantile(1) <= 0 {
		t.Fatal("clamped huge observation lost")
	}
}

// Property test over random observation sets: the cumulative Buckets
// export must be internally consistent (strictly increasing bounds,
// nondecreasing cumulative counts ending at Count, bounds that
// round-trip through bucketOf) and every observation must be accounted
// for at or below a bound that bucketOf agrees with.
func TestHistogramBucketsExportProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var h Histogram
		n := 1 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			// Mix exact-range tiny values, latency-shaped values, and
			// occasional clamp-range monsters.
			var ns int64
			switch rng.Intn(10) {
			case 0:
				ns = int64(rng.Intn(histSub))
			case 1:
				ns = int64(rng.Int63())
			default:
				ns = rng.Int63n(int64(time.Second))
			}
			h.Observe(time.Duration(ns))
		}
		bs := h.Buckets()
		if len(bs) == 0 {
			t.Fatalf("trial %d: non-empty histogram exported no buckets", trial)
		}
		var prevBound, prevCum int64 = -1, 0
		for _, b := range bs {
			if b.UpperNS <= prevBound {
				t.Fatalf("trial %d: bounds not increasing: %d after %d", trial, b.UpperNS, prevBound)
			}
			if b.Cumulative <= prevCum {
				t.Fatalf("trial %d: cumulative not increasing: %d after %d", trial, b.Cumulative, prevCum)
			}
			// An inclusive upper bound is the last value of its bucket:
			// the next nanosecond starts the next one.
			if got, want := bucketOf(b.UpperNS), bucketOf(b.UpperNS+1)-1; b.UpperNS+1 < lowerBound(histBuckets-1) && got != want {
				t.Fatalf("trial %d: bound %d not at a bucket edge (bucketOf %d vs %d+1)", trial, b.UpperNS, got, want)
			}
			prevBound, prevCum = b.UpperNS, b.Cumulative
		}
		if prevCum != h.Count() {
			t.Fatalf("trial %d: final cumulative %d != count %d", trial, prevCum, h.Count())
		}
	}
	var empty Histogram
	if got := empty.Buckets(); got != nil {
		t.Fatalf("empty histogram exported %v", got)
	}
}

func TestHistogramSum(t *testing.T) {
	var h Histogram
	var want int64
	for _, d := range []time.Duration{time.Microsecond, 3 * time.Millisecond, 0, 17} {
		h.Observe(d)
		want += int64(d)
	}
	if h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
}

// Property test: bucketOf/lowerBound round-trip on every bucket start
// (the exact contract /metrics rendering relies on) and Quantile never
// exceeds Max for arbitrary observation mixes and quantiles.
func TestHistogramQuantileMaxProperty(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		if got := bucketOf(lowerBound(i)); got != i {
			t.Fatalf("bucketOf(lowerBound(%d)) = %d", i, got)
		}
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		var h Histogram
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(rng.Int63n(int64(10 * time.Second))))
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1, rng.Float64()} {
			if got := h.Quantile(q); got > h.Max() {
				t.Fatalf("trial %d: q%.3f = %v exceeds max %v", trial, q, got, h.Max())
			}
		}
	}
}

// A high quantile's bucket upper bound must never read above the exact
// tracked maximum (p99 > max in a latency report is nonsense).
func TestHistogramQuantileNotAboveMax(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(8685 * time.Microsecond) // lands mid-bucket
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got > h.Max() {
			t.Fatalf("q%.2f = %v exceeds max %v", q, got, h.Max())
		}
	}
}
