package obs

import (
	"math/bits"
	"time"
)

// histogram.go adds fixed-bucket duration histograms to the Collector.
// Buckets are log-scale powers of two of a microsecond — 1µs, 2µs, 4µs, …
// ~33.6s, +Inf — so one span or phase duration lands in its bucket with a
// single bit-length computation: the update under the Collector's lock is
// O(1) and allocation-free once the histogram exists. The fixed geometry
// means every histogram in a process (and across processes) shares bucket
// boundaries, which is what the Prometheus text rendering and cross-run
// comparisons need.

// HistBuckets is the bucket count: HistBuckets-1 finite upper bounds plus
// one overflow bucket.
const HistBuckets = 27

// HistBound returns bucket i's inclusive upper bound. The last bucket is
// unbounded and reports finite=false.
func HistBound(i int) (bound time.Duration, finite bool) {
	if i < 0 || i >= HistBuckets-1 {
		return 0, false
	}
	return time.Microsecond << i, true
}

// histBucket returns the bucket index for one duration: the smallest i
// with d <= 1µs<<i, clamped to the overflow bucket. Non-positive durations
// land in bucket 0.
func histBucket(d time.Duration) int {
	n := d.Nanoseconds()
	if n <= 1000 {
		return 0
	}
	b := bits.Len64(uint64((n - 1) / 1000))
	if b >= HistBuckets-1 {
		return HistBuckets - 1
	}
	return b
}

// Histogram is a point-in-time copy of one duration distribution.
type Histogram struct {
	// Counts[i] is the number of observations in bucket i (non-cumulative);
	// bucket bounds come from HistBound.
	Counts [HistBuckets]int64
	// Sum is the total of all observed durations.
	Sum time.Duration
}

// Total returns the observation count across all buckets.
func (h Histogram) Total() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// observe folds one duration in; called under the Collector's lock.
func (h *Histogram) observe(d time.Duration) {
	h.Counts[histBucket(d)]++
	h.Sum += d
}
