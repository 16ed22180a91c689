package table

import (
	"fmt"
	"sync"

	"cinderella/internal/entity"
	"cinderella/internal/storage"
)

// The partition scan.
//
// Every query scans its surviving partitions with the word-parallel
// kernel (storage.ScanBitmap): the query compiles into a BitmapProgram
// over the partition's attribute-presence matrix, the kernel yields the
// candidate records 64 per word op, and only candidates are decoded.
// The kernel charges the partition's full visit up front, so the I/O
// accounting — QueryReport and every Stats delta — is that of a scan
// that read every live record; the skip saves decode CPU only.

// scanScratch is one partition scan's pooled working set: the kernel's
// buffers (resolved attribute rows, candidate bitset, candidate list)
// plus the hit buffer. Pooling them makes the steady-state scan loop
// allocation-free (see TestBitmapScanSteadyStateZeroAlloc).
type scanScratch struct {
	bm   storage.BitmapScratch
	hits []Result
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// scanPart scans one partition snapshot: prog selects the candidate
// records, each candidate is decoded, and match (nil accepts all)
// decides whether it is a hit. The returned partScan owns a pooled
// scratch until settle releases it.
func scanPart(ps *partSnap, prog storage.BitmapProgram, match func(*entity.Entity) bool) partScan {
	scratch := scanScratchPool.Get().(*scanScratch)
	v := ps.reader()
	cands, words, err := v.ScanBitmap(prog, &scratch.bm)
	if err != nil {
		panic(fmt.Sprintf("table: scanning partition %d: %v", ps.pid, err))
	}
	// Every live record was visited (and charged); candidates are
	// decoded, the rest were skipped by the kernel.
	sc := partScan{
		pid:         ps.pid,
		scratch:     scratch,
		scanned:     v.NumRecords(),
		bytesRead:   v.LiveBytes(),
		decoded:     len(cands),
		bitmapWords: words,
	}
	hits := scratch.hits[:0]
	var bytesDec int64
	for _, id := range cands {
		rec := v.Record(id)
		eid, e, err := decodeRecord(rec)
		if err != nil {
			panic(fmt.Sprintf("table: corrupt record in partition %d: %v", ps.pid, err))
		}
		bytesDec += int64(len(rec))
		if match == nil || match(e) {
			hits = append(hits, Result{ID: eid, Entity: e})
			sc.bytesHit += int64(len(rec))
		}
	}
	scratch.hits, sc.hits = hits, hits
	sc.skipped = sc.scanned - sc.decoded
	sc.bytesSkip = sc.bytesRead - bytesDec
	return sc
}
