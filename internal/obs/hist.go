package obs

import "sync/atomic"

// histogram is a fixed-bucket histogram with atomic counts. observe
// allocates nothing and takes a handful of nanoseconds: a short linear
// scan over the bounds beats a binary search at this bucket count.
type histogram struct {
	bounds []int64        // ascending upper bounds
	counts []atomic.Int64 // len(bounds)+1, last is overflow (+Inf)
	sum    atomic.Int64
	total  atomic.Int64
}

// latencyBoundsNs is the latency bucket ladder: 1µs … 1s in decades
// with a 2/5 split inside each decade, wide enough for in-memory
// inserts and fsync latencies alike.
var latencyBoundsNs = []int64{
	1_000, 2_000, 5_000, // 1µs, 2µs, 5µs
	10_000, 20_000, 50_000, // 10µs …
	100_000, 200_000, 500_000, // 100µs …
	1_000_000, 10_000_000, 100_000_000, // 1ms, 10ms, 100ms
	1_000_000_000, // 1s
}

// batchBounds is the bucket ladder for batch sizes: powers of two up to
// far past the committer's early-flush threshold. Samples are operation
// counts, not nanoseconds.
var batchBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

func newHistogram(bounds []int64) histogram {
	return histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// observe records one sample.
func (h *histogram) observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// snapshot copies the histogram state for JSON serialization.
func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.total.Load(),
		BoundsNs: h.bounds,
		Counts:   make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.MeanNs = float64(h.sum.Load()) / float64(s.Count)
	}
	return s
}
