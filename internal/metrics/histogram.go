package metrics

import (
	"math"
	"math/bits"
	"time"
)

// The histogram is log-bucketed with subBuckets sub-buckets per octave:
// values below subBuckets get one exact bucket each; larger values land in
// the bucket addressed by their top subBits+1 significand bits, giving a
// relative error below 1/subBuckets (~3.1%) at every scale while needing at
// most ~1920 buckets to span the full int64 nanosecond range.
const (
	subBits    = 5
	subBuckets = 1 << subBits
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	e := bits.Len64(u) - 1 // 2^e <= u < 2^(e+1), e >= subBits
	top := u >> uint(e-subBits)
	return (e-subBits)*subBuckets + int(top)
}

// bucketUpper returns the largest value mapping to bucket b.
func bucketUpper(b int) int64 {
	if b < subBuckets {
		return int64(b)
	}
	e := (b-subBuckets)/subBuckets + subBits
	top := uint64(b - (e-subBits)*subBuckets)
	shift := uint(e - subBits)
	return int64(((top + 1) << shift) - 1)
}

// BucketRange returns the bounds [lo, hi] of the histogram bucket holding d:
// every value in the range is recorded indistinguishably from d. Tests use
// it to bound quantile drift to one bucket width.
func BucketRange(d time.Duration) (lo, hi time.Duration) {
	b := bucketIndex(int64(d))
	hi = time.Duration(bucketUpper(b))
	if b == 0 {
		return 0, hi
	}
	return time.Duration(bucketUpper(b-1)) + 1, hi
}

// Histogram is a log-bucketed duration histogram. The zero value is ready to
// use. Min, max, count and sum are exact; quantiles are resolved to the
// upper bound of the bucket holding the ranked sample (clamped to the exact
// min/max), so they are at most one bucket width above the true value.
type Histogram struct {
	nm      string
	count   int64
	sum     int64
	minV    int64
	maxV    int64
	buckets []int64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.minV {
		h.minV = v
	}
	if h.count == 0 || v > h.maxV {
		h.maxV = v
	}
	h.count++
	h.sum += v
	b := bucketIndex(v)
	for len(h.buckets) <= b {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[b]++
}

// Merge folds every observation of o into h. Bucket counts, count, sum and
// the exact min/max add up exactly as if each sample had been observed on h,
// so merging per-shard histograms loses nothing beyond bucket resolution.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.minV < h.minV {
		h.minV = o.minV
	}
	if h.count == 0 || o.maxV > h.maxV {
		h.maxV = o.maxV
	}
	h.count += o.count
	h.sum += o.sum
	for len(h.buckets) < len(o.buckets) {
		h.buckets = append(h.buckets, 0)
	}
	for b, c := range o.buckets {
		h.buckets[b] += c
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Min returns the exact smallest observation (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.minV)
}

// Max returns the exact largest observation (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.maxV)
}

// Mean returns the exact mean (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// ValueAtRank returns the value of the r-th observation (0-based) in sorted
// order, resolved to its bucket upper bound and clamped to [Min, Max].
func (h *Histogram) ValueAtRank(r int64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if r <= 0 {
		return time.Duration(h.minV)
	}
	if r >= h.count-1 {
		return time.Duration(h.maxV)
	}
	cum := int64(0)
	for b, c := range h.buckets {
		cum += c
		if cum > r {
			v := bucketUpper(b)
			if v < h.minV {
				v = h.minV
			}
			if v > h.maxV {
				v = h.maxV
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.maxV)
}

// Quantile returns the q-th percentile (0..100) using the nearest-rank rule
// (rank = round(q/100·(n−1))). Quantile(0) and Quantile(100) are the exact
// min and max.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.minV)
	}
	if q >= 100 {
		return time.Duration(h.maxV)
	}
	r := int64(math.Round(q / 100 * float64(h.count-1)))
	return h.ValueAtRank(r)
}
