package storage

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"cinderella/internal/synopsis"
)

// The cold tier: a frozen partition's pages, compressed.
//
// A ColdSegment is the read-only replica of a vacuumed Segment. The 8 KiB
// page images are concatenated into fixed-size runs ("blocks"), each run
// deflate-compressed and checksummed independently, so a point read or a
// scan decompresses only the blocks it touches. The attribute-presence
// matrix and the live counters stay hot (uncompressed, in memory):
// partition pruning and the bitmap kernel's decode skip keep working
// without touching a single cold byte.
//
// Reads that survive pruning go through the block-decompression
// admission path: each visited page is touched in the shared BufferCache
// under the cold segment's own cache identity, and every block
// decompression is charged to the Stats cold-read counters (pages +
// raw bytes) on top of the ordinary per-page/per-record read charges —
// Definition-1 EFFICIENCY stays measurable across tiers, and the
// decompression count is the tiering manager's reheat signal.
//
// Durability: Encode serializes the cold segment to a checksummed file
// image (written by the durable layer via tmp+rename, the shard-manifest
// commit discipline). DecodeColdSegment refuses torn, truncated, or
// bit-flipped images with ErrColdCorrupt — the write-ahead log remains
// the row source of truth, so a verified-but-stale file is simply
// rebuilt from the replayed rows, while a corrupt file is surfaced to
// the operator instead of being papered over.

// ErrColdCorrupt is returned when a cold segment file fails its
// structural or checksum verification. It is the cold tier's analogue of
// the shard manifest's torn-file refusal.
var ErrColdCorrupt = errors.New("storage: cold segment file is torn or corrupt")

// coldMagic guards the file format; the trailing byte is the version.
var coldMagic = [8]byte{'C', 'I', 'N', 'D', 'C', 'O', 'L', '1'}

// coldBlockPages is the number of page images per compression block
// (128 KiB raw per block).
const coldBlockPages = 16

// coldHeaderSize is magic(8) + numPages(4) + pagesPerBlock(4) +
// numBlocks(4) + live(4) + liveBytes(8) + headerCRC(4).
const coldHeaderSize = 36

// coldResidentBlocks bounds the per-segment decompressed-block cache: a
// scan in flight keeps its current block (and Record lookups into it)
// hot without re-inflating per record, while the steady-state resident
// cost of a cold segment stays two blocks.
const coldResidentBlocks = 2

// coldBlock is one compressed run of page images.
type coldBlock struct {
	data      []byte // deflate-compressed concatenation of raw pages
	crc       uint32 // crc32 (IEEE) of data
	firstPage int
	numPages  int
}

// ColdSegment is a frozen partition's compressed, read-only page store
// plus its hot metadata. Safe for concurrent readers; it is never
// mutated after construction (mutations thaw the partition first).
type ColdSegment struct {
	blocks []coldBlock
	// bm is the attribute-presence bitmap matrix carried over from the
	// frozen segment — hot, so the bitmap kernel skips frozen records
	// without inflating a single cold block. Zero after Decode (the
	// reopen path re-freezes from replayed rows, rebuilding it).
	bm        bitmat
	numPages  int
	live      int
	bytes     int64 // live payload bytes (raw)
	compBytes int64 // total compressed block bytes
	stats     *Stats
	cache     *BufferCache
	cacheID   uint64

	// Decompressed-block cache (tiny LRU) and the reheat signal.
	dmu       sync.Mutex
	resident  map[int][]*Page
	order     []int        // resident block ids, oldest first
	coldReads atomic.Int64 // block decompressions since freeze
}

// FreezeSegment compresses a segment's page chain into a ColdSegment,
// retaining the presence matrix and live counters hot (freeze keeps
// slot positions, so the matrix carries over as is). The caller should have
// vacuumed the segment first (freeze compacts by construction at the
// table layer) and must hold exclusive access. The compression is
// charged to the write counters like a physical copy to the cold tier.
func FreezeSegment(s *Segment) *ColdSegment {
	s.bm.synShared = true
	c := &ColdSegment{
		bm:       s.bm.owned(),
		numPages: len(s.pages),
		live:     s.live,
		bytes:    s.bytes,
		stats:    s.stats,
		cache:    s.cache,
		cacheID:  segmentIDs.Add(1),
		resident: make(map[int][]*Page),
	}
	for first := 0; first < len(s.pages); first += coldBlockPages {
		n := len(s.pages) - first
		if n > coldBlockPages {
			n = coldBlockPages
		}
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			panic("storage: flate writer: " + err.Error())
		}
		for _, p := range s.pages[first : first+n] {
			if _, err := w.Write(p.buf[:]); err != nil {
				panic("storage: freeze compress: " + err.Error())
			}
		}
		if err := w.Close(); err != nil {
			panic("storage: freeze compress: " + err.Error())
		}
		data := append([]byte(nil), buf.Bytes()...)
		c.blocks = append(c.blocks, coldBlock{
			data:      data,
			crc:       crc32.ChecksumIEEE(data),
			firstPage: first,
			numPages:  n,
		})
		c.compBytes += int64(len(data))
	}
	c.stats.addWrite(int64(c.numPages), c.compBytes)
	return c
}

// AttachCache routes the cold segment's page touches through the shared
// buffer cache (the admission path for decompressed cold pages).
func (c *ColdSegment) AttachCache(cache *BufferCache) { c.cache = cache }

// NumPages returns the number of frozen page images.
func (c *ColdSegment) NumPages() int { return c.numPages }

// NumRecords returns the live record count at freeze time.
func (c *ColdSegment) NumRecords() int { return c.live }

// LiveBytes returns the raw live payload bytes at freeze time.
func (c *ColdSegment) LiveBytes() int64 { return c.bytes }

// RawBytes returns the uncompressed page footprint.
func (c *ColdSegment) RawBytes() int64 { return int64(c.numPages) * PageSize }

// CompressedBytes returns the resident compressed footprint.
func (c *ColdSegment) CompressedBytes() int64 { return c.compBytes }

// Synopsis returns the attributes the frozen records carry (nil for a
// decoded file image, which has no matrix). Callers must not modify it.
func (c *ColdSegment) Synopsis() *synopsis.Set { return c.bm.syn }

// Attrs fills dst with the attribute set of the frozen record id from
// the hot presence matrix, inflating nothing, and returns it.
func (c *ColdSegment) Attrs(id RecordID, dst *synopsis.Set) *synopsis.Set {
	return c.bm.column(id.Page, id.Slot, dst)
}

// ColdReads returns the number of block decompressions since freeze —
// the tiering manager's reheat signal.
func (c *ColdSegment) ColdReads() int64 { return c.coldReads.Load() }

// page returns the decompressed page pi, inflating its block on demand.
// Decompressions charge the cold-read counters; the returned page is
// immutable and stays valid after eviction from the resident cache.
func (c *ColdSegment) page(pi int) *Page {
	bi := pi / coldBlockPages
	b := &c.blocks[bi]
	c.dmu.Lock()
	pages, ok := c.resident[bi]
	if !ok {
		pages = c.inflate(b)
		c.resident[bi] = pages
		c.order = append(c.order, bi)
		if len(c.order) > coldResidentBlocks {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.resident, evict)
		}
		c.coldReads.Add(1)
		c.stats.addColdRead(int64(b.numPages), int64(b.numPages)*PageSize)
	}
	c.dmu.Unlock()
	return pages[pi-b.firstPage]
}

// inflate decompresses one block into fresh pages. The block's checksum
// was verified at construction, so a decompression failure here is a
// program bug, not an I/O condition.
func (c *ColdSegment) inflate(b *coldBlock) []*Page {
	r := flate.NewReader(bytes.NewReader(b.data))
	pages := make([]*Page, b.numPages)
	for i := range pages {
		p := &Page{}
		if _, err := io.ReadFull(r, p.buf[:]); err != nil {
			panic("storage: cold block inflate: " + err.Error())
		}
		pages[i] = p
	}
	r.Close()
	return pages
}

// Read returns the record bytes for id, decompressing its block if
// needed. The slice aliases an immutable decompressed page.
func (c *ColdSegment) Read(id RecordID) ([]byte, error) {
	if id.Page < 0 || id.Page >= c.numPages {
		return nil, ErrNotFound
	}
	p := c.page(id.Page)
	rec, ok := p.Read(id.Slot)
	if !ok {
		return nil, ErrNotFound
	}
	if c.cache != nil {
		c.cache.touch(c.cacheID, id.Page)
	}
	c.stats.addRead(1, int64(len(rec)), 1)
	return rec, nil
}

// Thaw rebuilds a hot segment from the frozen page images. Record ids
// are preserved exactly (the pages are byte-identical to the vacuumed
// chain that was frozen), so the table's row index needs no remapping.
// The inflation is charged to the cold-read counters and the rebuilt
// chain to the write counters, like a physical copy back to the hot
// tier. Pages are cloned so still-published cold views never alias a
// mutable page.
func (c *ColdSegment) Thaw() *Segment {
	s := &Segment{
		pages: make([]*Page, c.numPages),
		bm:    c.bm.owned(),
		stats: c.stats,
		live:  c.live,
		bytes: c.bytes,
		cache: c.cache,
	}
	for pi := 0; pi < c.numPages; pi++ {
		s.pages[pi] = c.page(pi).clone()
	}
	s.stats.addWrite(int64(c.numPages), c.bytes)
	return s
}

// DropFromCache evicts the cold identity's admitted pages from the
// shared buffer cache (partition thawed or dropped).
func (c *ColdSegment) DropFromCache() {
	if c.cache != nil {
		c.cache.evictSegment(c.cacheID)
	}
}

// ColdView is the snapshot-read handle of a cold segment, mirroring
// SegView. The segment is immutable, so the view is just a pointer.
type ColdView struct {
	c *ColdSegment
}

// View returns the cold segment's read view.
func (c *ColdSegment) View() ColdView { return ColdView{c: c} }

// Cold reports whether the view is backed by a cold segment (a zero
// ColdView is not).
func (v ColdView) Cold() bool { return v.c != nil }

// NumRecords returns the live record count at freeze time.
func (v ColdView) NumRecords() int { return v.c.live }

// LiveBytes returns the raw live payload bytes at freeze time.
func (v ColdView) LiveBytes() int64 { return v.c.bytes }

// Synopsis returns the frozen records' attribute synopsis.
func (v ColdView) Synopsis() *synopsis.Set { return v.c.bm.syn }

// Record returns the payload bytes of a candidate yielded by ScanBitmap,
// inflating its block on demand (charged to the cold counters). Like
// SegView.Record it charges no additional ordinary I/O.
func (v ColdView) Record(id RecordID) []byte {
	p := v.c.page(id.Page)
	off, n := p.slot(id.Slot)
	return p.buf[off : off+n]
}

// Encode serializes the cold segment to its checksummed file image:
//
//	magic+version(8) numPages(4) pagesPerBlock(4) numBlocks(4)
//	live(4) liveBytes(8) headerCRC(4)
//	then per block: compLen(4) blockCRC(4) compressed bytes
//
// The matrix is not serialized: the WAL is the row source of truth and
// reopen re-derives all hot metadata from the replayed rows; the file
// exists so recovery can verify the cold tier's integrity and so the
// compressed bytes survive independently of the log.
func (c *ColdSegment) Encode() []byte {
	out := make([]byte, coldHeaderSize, coldHeaderSize+int(c.compBytes)+8*len(c.blocks))
	copy(out[0:8], coldMagic[:])
	binary.LittleEndian.PutUint32(out[8:12], uint32(c.numPages))
	binary.LittleEndian.PutUint32(out[12:16], coldBlockPages)
	binary.LittleEndian.PutUint32(out[16:20], uint32(len(c.blocks)))
	binary.LittleEndian.PutUint32(out[20:24], uint32(c.live))
	binary.LittleEndian.PutUint64(out[24:32], uint64(c.bytes))
	binary.LittleEndian.PutUint32(out[32:36], crc32.ChecksumIEEE(out[0:32]))
	var hdr [8]byte
	for _, b := range c.blocks {
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(b.data)))
		binary.LittleEndian.PutUint32(hdr[4:8], b.crc)
		out = append(out, hdr[:]...)
		out = append(out, b.data...)
	}
	return out
}

// DecodeColdSegment parses and verifies a cold segment file image.
// Every structural inconsistency — short header, bad magic, checksum
// mismatch, truncated or oversized payload — returns an error wrapping
// ErrColdCorrupt. The decoded segment has no presence matrix (reopen
// re-freezes from the replayed rows); it exists to verify integrity and
// expose the frozen page images, and refuses ScanBitmap with ErrNoMatrix.
func DecodeColdSegment(data []byte, stats *Stats) (*ColdSegment, error) {
	if stats == nil {
		stats = &Stats{}
	}
	if len(data) < coldHeaderSize {
		return nil, fmt.Errorf("%w: %d-byte file is shorter than the header", ErrColdCorrupt, len(data))
	}
	if !bytes.Equal(data[0:8], coldMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrColdCorrupt, data[0:8])
	}
	if got, want := crc32.ChecksumIEEE(data[0:32]), binary.LittleEndian.Uint32(data[32:36]); got != want {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrColdCorrupt)
	}
	numPages := int(binary.LittleEndian.Uint32(data[8:12]))
	perBlock := int(binary.LittleEndian.Uint32(data[12:16]))
	numBlocks := int(binary.LittleEndian.Uint32(data[16:20]))
	if perBlock != coldBlockPages {
		return nil, fmt.Errorf("%w: block size %d, this binary uses %d", ErrColdCorrupt, perBlock, coldBlockPages)
	}
	if want := (numPages + perBlock - 1) / perBlock; numBlocks != want {
		return nil, fmt.Errorf("%w: %d blocks for %d pages, want %d", ErrColdCorrupt, numBlocks, numPages, want)
	}
	c := &ColdSegment{
		numPages: numPages,
		live:     int(binary.LittleEndian.Uint32(data[20:24])),
		bytes:    int64(binary.LittleEndian.Uint64(data[24:32])),
		stats:    stats,
		cacheID:  segmentIDs.Add(1),
		resident: make(map[int][]*Page),
	}
	off := coldHeaderSize
	for bi := 0; bi < numBlocks; bi++ {
		if len(data)-off < 8 {
			return nil, fmt.Errorf("%w: truncated at block %d header", ErrColdCorrupt, bi)
		}
		compLen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		off += 8
		if len(data)-off < compLen {
			return nil, fmt.Errorf("%w: truncated in block %d payload", ErrColdCorrupt, bi)
		}
		blockData := data[off : off+compLen]
		off += compLen
		if crc32.ChecksumIEEE(blockData) != crc {
			return nil, fmt.Errorf("%w: block %d checksum mismatch", ErrColdCorrupt, bi)
		}
		first := bi * perBlock
		n := numPages - first
		if n > perBlock {
			n = perBlock
		}
		c.blocks = append(c.blocks, coldBlock{
			data:      append([]byte(nil), blockData...),
			crc:       crc,
			firstPage: first,
			numPages:  n,
		})
		c.compBytes += int64(compLen)
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrColdCorrupt, len(data)-off)
	}
	return c, nil
}

// OpenColdSegmentFile reads and verifies a cold segment file. Checksum
// and structural failures wrap ErrColdCorrupt; a missing file returns
// the underlying fs error.
func OpenColdSegmentFile(path string, stats *Stats) (*ColdSegment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := DecodeColdSegment(data, stats)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
