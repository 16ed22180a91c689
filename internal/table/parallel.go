package table

import (
	"sync"
	"sync/atomic"
	"time"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/storage"
)

// Parallel partition scans.
//
// Queries that survive pruning scan each remaining partition
// independently: partitions are disjoint and each scan runs against an
// immutable snapshot, so the scans are embarrassingly parallel.
// scanParts fans the per-partition work out over a bounded worker pool.
// Determinism is preserved by construction — the i-th unit writes only
// slot i of a pre-sized result array, and settle concatenates slots in
// ascending partition-id order, so the result bytes and every QueryReport
// counter are identical to a serial scan regardless of scheduling.

// scanParts runs scanPart over every surviving partition, using up to
// t.parallelism workers (Config.Parallelism; 1 opts out), and returns
// one partScan per survivor in order. timed additionally stamps each
// slot's scan wall time (sampled spans record per-partition timing;
// everyone else skips the clock reads).
func (t *Table) scanParts(survivors []*partSnap, prog storage.BitmapProgram, match func(*entity.Entity) bool, timed bool) []partScan {
	parts := make([]partScan, len(survivors))
	scan := func(i int) {
		if !timed {
			parts[i] = scanPart(survivors[i], prog, match)
			return
		}
		st := time.Now()
		parts[i] = scanPart(survivors[i], prog, match)
		parts[i].ns = time.Since(st).Nanoseconds()
	}
	n := len(parts)
	workers := min(t.parallelism, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			scan(i)
		}
		return parts
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				scan(i)
			}
		}()
	}
	wg.Wait()
	return parts
}

// partScan is one partition's private scan buffer: hits in storage order
// plus the records-visited and byte-volume counters. decoded and skipped
// split the visited records by whether the bitmap kernel let the scan
// avoid the decode; they feed the telemetry decode counters, the heat
// map, and query spans only — never QueryReport.
type partScan struct {
	pid         core.PartitionID
	hits        []Result
	scanned     int
	decoded     int   // records actually decoded (the kernel's candidates)
	skipped     int   // records the kernel ruled out without decoding
	bytesRead   int64 // live record bytes visited
	bytesHit    int64 // live record bytes of hits (relevant to the query)
	bytesSkip   int64 // live record bytes of skipped records
	bitmapWords int64 // 64-bit word operations the kernel performed
	ns          int64 // scan wall time; recorded only for sampled spans

	// scratch is the pooled buffer set backing hits (see bitmap.go);
	// settle releases it after the hits have been merged and the span
	// published.
	scratch *scanScratch
}
