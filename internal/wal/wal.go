// Package wal implements a minimal write-ahead log giving the universal
// table crash-safe durability. Each mutating operation (insert, update,
// delete) is appended as one checksummed record; recovery replays the
// log through the partitioner, which is deterministic, so the partition
// layout after recovery matches the layout before the crash.
//
// Record layout (little endian):
//
//	crc32(payload) uint32 | payloadLen uint32 | payload
//	payload: kind byte | id uvarint | data …
//
// A torn tail (partial final record after a crash) is detected by length
// or checksum mismatch and discarded; everything before it is replayed.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"cinderella/internal/obs"
)

// Kind tags an operation in the log.
type Kind byte

// Logged operation kinds.
const (
	// KindInsert carries the record bytes of a new entity.
	KindInsert Kind = 1
	// KindUpdate carries the replacement record bytes for an entity.
	KindUpdate Kind = 2
	// KindDelete carries no data.
	KindDelete Kind = 3
	// KindAttr registers an attribute name (Data) under a dense id (ID),
	// making the log self-describing for dictionary-encoded records.
	KindAttr Kind = 4
	// KindCompact records a partition compaction; ID carries the float64
	// bits of the fill threshold. Compaction is deterministic, so replay
	// reproduces the merged partitioning.
	KindCompact Kind = 5
)

// Op is one logged operation.
type Op struct {
	Kind Kind
	ID   uint64
	Data []byte
}

// ErrCorrupt is returned by Reader.Next for a record that fails its
// checksum mid-log (not at the tail, which is silently truncated).
var ErrCorrupt = errors.New("wal: corrupt record")

// Writer appends operations to a log file. A Writer is not safe for
// concurrent use; callers (DurableTable) serialize access. The seq and
// synced counters are the group-commit bookkeeping: seq numbers every
// appended record, synced remembers the highest record number made
// durable, and a batching committer compares the two to coalesce many
// logical sync requests into one fsync (see Sync).
type Writer struct {
	f      *os.File
	buf    *bufio.Writer
	scr    []byte
	obs    *obs.Registry
	seq    uint64 // records appended so far
	synced uint64 // records covered by the last successful Sync
}

// SetObserver attaches a telemetry registry; appends and syncs then feed
// the WAL counters and latency histograms. nil detaches.
func (w *Writer) SetObserver(r *obs.Registry) { w.obs = r }

// Create opens path for appending (creating it if missing).
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, buf: bufio.NewWriter(f)}, nil
}

// Append writes one operation to the log buffer. Call Sync to make it
// durable.
func (w *Writer) Append(op Op) error {
	var start time.Time
	if w.obs != nil {
		start = time.Now()
	}
	payload := w.scr[:0]
	payload = append(payload, byte(op.Kind))
	payload = binary.AppendUvarint(payload, op.ID)
	payload = append(payload, op.Data...)
	w.scr = payload

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	if _, err := w.buf.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.buf.Write(payload)
	if err == nil {
		w.seq++
		if w.obs != nil {
			w.obs.Add(obs.CWALAppends, 1)
			w.obs.Add(obs.CWALAppendBytes, int64(len(hdr)+len(payload)))
			w.obs.Observe(obs.HWALAppendNs, time.Since(start).Nanoseconds())
		}
	}
	return err
}

// Seq returns the number of records appended so far.
func (w *Writer) Seq() uint64 { return w.seq }

// Synced returns the highest record number made durable by Sync: every
// record with number ≤ Synced() has been fsynced. A group committer
// skips the fsync entirely when Synced() already covers the record it
// is acknowledging.
func (w *Writer) Synced() uint64 { return w.synced }

// Flush pushes buffered records to the OS page cache and returns the
// sequence number they cover, without fsyncing. SyncFile and MarkSynced
// complete the durability handshake; the three-step split lets a group
// committer run the fsync outside the table's append lock, so
// concurrent appends overlap the disk wait and pile into the next
// batch. Callers serialize Flush with Append like the other methods.
func (w *Writer) Flush() (uint64, error) {
	seq := w.seq
	if err := w.buf.Flush(); err != nil {
		return 0, err
	}
	return seq, nil
}

// SyncFile fsyncs the underlying file. Unlike the Writer's other
// methods it is safe to call while another goroutine appends: it
// persists at least every record already Flushed (possibly more, which
// is harmless — durability can only run ahead of what is claimed).
func (w *Writer) SyncFile() error {
	var start time.Time
	if w.obs != nil {
		start = time.Now()
	}
	err := w.f.Sync()
	if err == nil && w.obs != nil {
		w.obs.Add(obs.CWALSyncs, 1)
		w.obs.Observe(obs.HWALSyncNs, time.Since(start).Nanoseconds())
	}
	return err
}

// MarkSynced records that records numbered ≤ seq are durable, after a
// successful SyncFile. It keeps the maximum, so a slow fsync completing
// late cannot regress Synced. Serialized by the caller like Append.
func (w *Writer) MarkSynced(seq uint64) {
	if seq > w.synced {
		w.synced = seq
	}
}

// Sync flushes buffered records and fsyncs the file, all in one call on
// the caller's goroutine (use Flush/SyncFile/MarkSynced to overlap the
// fsync with appends). Afterwards Synced() == Seq(): every appended
// record is durable, which is what lets one fsync acknowledge a whole
// batch of concurrent writers.
func (w *Writer) Sync() error {
	var start time.Time
	if w.obs != nil {
		start = time.Now()
	}
	seq := w.seq
	if err := w.buf.Flush(); err != nil {
		return err
	}
	err := w.f.Sync()
	if err == nil {
		w.MarkSynced(seq)
		if w.obs != nil {
			w.obs.Add(obs.CWALSyncs, 1)
			w.obs.Observe(obs.HWALSyncNs, time.Since(start).Nanoseconds())
		}
	}
	return err
}

// Close flushes, syncs, and closes the log.
func (w *Writer) Close() error {
	if err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Reader iterates a log file from the start.
type Reader struct {
	r    *bufio.Reader
	c    io.Closer
	done bool
	off  int64 // bytes of the records returned so far
}

// Open opens path for replay. A missing file yields an empty reader.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return &Reader{done: true}, nil
	}
	if err != nil {
		return nil, err
	}
	return &Reader{r: bufio.NewReader(f), c: f}, nil
}

// Next returns the next operation, io.EOF at a clean end (including a
// truncated tail, which is treated as the end of the durable prefix), or
// ErrCorrupt for a checksum failure that is followed by more data.
func (r *Reader) Next() (Op, error) {
	if r.done {
		return Op{}, io.EOF
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		r.done = true
		return Op{}, io.EOF // clean end or torn header: durable prefix ends here
	}
	crc := binary.LittleEndian.Uint32(hdr[0:4])
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > 1<<30 {
		r.done = true
		return Op{}, io.EOF // implausible length: torn tail
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		r.done = true
		return Op{}, io.EOF // torn payload
	}
	if crc32.ChecksumIEEE(payload) != crc {
		// Distinguish a torn tail (nothing follows) from mid-log rot.
		if _, err := r.r.Peek(1); err != nil {
			r.done = true
			return Op{}, io.EOF
		}
		r.done = true
		return Op{}, ErrCorrupt
	}
	if len(payload) < 2 {
		r.done = true
		return Op{}, fmt.Errorf("wal: short payload")
	}
	kind := Kind(payload[0])
	id, k := binary.Uvarint(payload[1:])
	if k <= 0 {
		r.done = true
		return Op{}, fmt.Errorf("wal: corrupt id")
	}
	data := payload[1+k:]
	r.off += int64(len(hdr)) + int64(n)
	return Op{Kind: kind, ID: id, Data: data}, nil
}

// Offset returns the byte length of the records Next has returned. Once
// Next reports io.EOF it is where the durable prefix ends: a torn tail
// starts there, and a writer reopening the log must truncate it away
// before appending, or the new records land behind bytes replay stops at.
func (r *Reader) Offset() int64 { return r.off }

// Close releases the underlying file.
func (r *Reader) Close() error {
	if r.c != nil {
		return r.c.Close()
	}
	return nil
}

// Rewrite atomically replaces the log at path with exactly ops (used by
// checkpointing: the live data set re-expressed as inserts). It writes
// to a temp file, syncs, and renames over the original.
func Rewrite(path string, ops []Op) error {
	tmp := path + ".tmp"
	w, err := Create(tmp)
	if err != nil {
		return err
	}
	for _, op := range ops {
		if err := w.Append(op); err != nil {
			w.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
