package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"cinderella/internal/synopsis"
)

// allLive is the empty conjunction: every live record is a candidate.
var allLive = BitmapProgram{}

// scanView is what the tests need of SegView and ColdView alike.
type scanView interface {
	ScanBitmap(prog BitmapProgram, sc *BitmapScratch) ([]RecordID, int64, error)
	Record(id RecordID) []byte
	Synopsis() *synopsis.Set
}

// modelRec is the test-owned truth about one stored record.
type modelRec struct {
	id      RecordID
	payload string
	syn     *synopsis.Set // nil = no attributes
}

// satisfies evaluates prog against one record's attribute set from
// first principles.
func (r modelRec) satisfies(prog BitmapProgram) bool {
	present := 0
	for _, a := range prog.Attrs {
		if r.syn != nil && r.syn.Contains(a) {
			present++
		}
	}
	if prog.Disjunction {
		return present > 0
	}
	return present == len(prog.Attrs)
}

// capture is a view together with the model state it must keep
// returning: the live records in storage order, and the union of their
// attribute sets (nil while the segment has never held a record).
type capture struct {
	v    scanView
	recs []modelRec
	syn  *synopsis.Set
}

// verify checks the captured view's synopsis against the model's union,
// then runs prog over the view and compares the candidates — ids,
// order, and payloads — with the model-derived set.
func (c capture) verify(prog BitmapProgram, sc *BitmapScratch) error {
	if got := c.v.Synopsis(); (got == nil) != (c.syn == nil) || got != nil && !got.Equal(c.syn) {
		return fmt.Errorf("view synopsis %v, model's live union %v", got, c.syn)
	}
	got, _, err := c.v.ScanBitmap(prog, sc)
	if err != nil {
		return err
	}
	var want []modelRec
	for _, r := range c.recs {
		if r.satisfies(prog) {
			want = append(want, r)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("prog %+v: %d candidates, model says %d", prog, len(got), len(want))
	}
	for i, id := range got {
		if id != want[i].id {
			return fmt.Errorf("prog %+v: candidate %d is %v, model says %v", prog, i, id, want[i].id)
		}
		if p := string(c.v.Record(id)); p != want[i].payload {
			return fmt.Errorf("prog %+v: record %v payload %q, model says %q", prog, id, p, want[i].payload)
		}
	}
	return nil
}

// matrixModel drives one segment through its life — hot or frozen — next
// to a map-based reference the storage code never sees.
type matrixModel struct {
	t     *testing.T
	rng   *rand.Rand
	seg   *Segment     // non-nil while hot
	cold  *ColdSegment // non-nil while frozen
	model map[RecordID]modelRec
	next  int
}

const modelAttrs = 24 // attribute universe; 99 is never stored

func (m *matrixModel) randSyn() *synopsis.Set {
	if m.rng.Intn(10) == 0 {
		return nil
	}
	s := synopsis.New(modelAttrs)
	for n := m.rng.Intn(5); n > 0; n-- {
		s.Add(m.rng.Intn(modelAttrs))
	}
	return s
}

func (m *matrixModel) randProg() BitmapProgram {
	prog := BitmapProgram{Disjunction: m.rng.Intn(2) == 0}
	for n := m.rng.Intn(4); n > 0; n-- {
		a := m.rng.Intn(modelAttrs)
		if m.rng.Intn(12) == 0 {
			a = 99
		}
		prog.Attrs = append(prog.Attrs, a)
	}
	sort.Ints(prog.Attrs)
	return prog
}

func (m *matrixModel) liveIDs() []RecordID {
	ids := make([]RecordID, 0, len(m.model))
	for id := range m.model {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Page != ids[j].Page {
			return ids[i].Page < ids[j].Page
		}
		return ids[i].Slot < ids[j].Slot
	})
	return ids
}

// step applies one random mutation or tier transition.
func (m *matrixModel) step() string {
	if m.cold != nil {
		m.seg, m.cold = m.cold.Thaw(), nil
		return "thaw"
	}
	switch op := m.rng.Intn(10); {
	case op < 4:
		for n := 1 + m.rng.Intn(120); n > 0; n-- {
			m.next++
			payload := fmt.Sprintf("rec-%05d-%s", m.next, make([]byte, m.rng.Intn(180)))
			syn := m.randSyn()
			id, err := m.seg.InsertTagged([]byte(payload), syn)
			if err != nil {
				m.t.Fatal(err)
			}
			m.model[id] = modelRec{id: id, payload: payload, syn: syn}
		}
		return "insert"
	case op < 7:
		ids := m.liveIDs()
		m.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids[:m.rng.Intn(len(ids)/2+1)] {
			if err := m.seg.Delete(id); err != nil {
				m.t.Fatal(err)
			}
			delete(m.model, id)
		}
		return "delete"
	case op < 9:
		remap := m.seg.Vacuum()
		if len(remap) != len(m.model) {
			m.t.Fatalf("vacuum remapped %d records, model holds %d", len(remap), len(m.model))
		}
		moved := make(map[RecordID]modelRec, len(m.model))
		for old, r := range m.model {
			r.id = remap[old]
			moved[r.id] = r
		}
		m.model = moved
		return "vacuum"
	default:
		// Freeze keeps positions, tombstones included (the table layer
		// vacuums first; the storage contract does not require it).
		m.seg, m.cold = nil, FreezeSegment(m.seg)
		return "freeze"
	}
}

// capture publishes the current state as a view plus its model cut.
func (m *matrixModel) capture() capture {
	c := capture{recs: make([]modelRec, 0, len(m.model))}
	if m.next > 0 {
		c.syn = synopsis.New(0)
	}
	for _, id := range m.liveIDs() {
		r := m.model[id]
		c.recs = append(c.recs, r)
		if r.syn != nil {
			c.syn.UnionWith(r.syn)
		}
	}
	if m.cold != nil {
		c.v = m.cold.View()
	} else {
		v := m.seg.View()
		c.v = &v
	}
	return c
}

// checkColumns compares the column read of every live record, hot or
// frozen, with the attribute set it was inserted with.
func (m *matrixModel) checkColumns() error {
	dst := synopsis.New(0)
	for id, r := range m.model {
		var got *synopsis.Set
		if m.cold != nil {
			got = m.cold.Attrs(id, dst)
		} else {
			got = m.seg.Attrs(id, dst)
		}
		want := r.syn
		if want == nil {
			want = synopsis.New(0)
		}
		if !got.Equal(want) {
			return fmt.Errorf("record %v: column %v, inserted with %v", id, got, want)
		}
	}
	return nil
}

// wantCharge is the bulk charge every ScanBitmap call must make,
// computed from the model (pages are the chain's physical length).
func (m *matrixModel) wantCharge() (pages, bytes, recs int64) {
	for _, r := range m.model {
		bytes += int64(len(r.payload))
	}
	if m.cold != nil {
		return int64(m.cold.NumPages()), bytes, int64(len(m.model))
	}
	return int64(m.seg.NumPages()), bytes, int64(len(m.model))
}

func readCharges(s *Stats) (pages, bytes, recs int64) {
	p, _, b, _, r := s.Snapshot()
	return p, b, r
}

// TestBitmapMatrixTracksModel is the storage-level property behind the
// single read path: across random insert / delete / vacuum / freeze /
// thaw sequences, ScanBitmap's candidates for random conjunction,
// disjunction and empty programs equal the set derived from a
// test-owned map of attribute sets, every call charges exactly
// (NumPages, LiveBytes, NumRecords), each view's Synopsis is the union
// of the live records' attribute sets, every record's column read
// returns its attribute set, and views captured earlier keep answering —
// synopsis included — from their own cut. It is the test that fails
// when position compaction in Vacuum (or the carry-over in freeze/thaw)
// or the per-attribute live counts are wrong.
func TestBitmapMatrixTracksModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			stats := &Stats{}
			m := &matrixModel{t: t, rng: rand.New(rand.NewSource(seed)),
				seg: NewSegment(stats), model: make(map[RecordID]modelRec)}
			var sc BitmapScratch
			var held []capture
			for i := 0; i < 120; i++ {
				op := m.step()
				if err := m.checkColumns(); err != nil {
					t.Fatalf("step %d (%s): %v", i, op, err)
				}
				cur := m.capture()
				progs := []BitmapProgram{allLive, {Disjunction: true}, m.randProg(), m.randProg(), m.randProg()}
				for _, prog := range progs {
					stats.Reset()
					if err := cur.verify(prog, &sc); err != nil {
						t.Fatalf("step %d (%s): %v", i, op, err)
					}
					wp, wb, wr := m.wantCharge()
					if p, b, r := readCharges(stats); p != wp || b != wb || r != wr {
						t.Fatalf("step %d (%s): prog %+v charged (pages=%d bytes=%d recs=%d), want (%d %d %d)",
							i, op, prog, p, b, r, wp, wb, wr)
					}
				}
				if m.seg != nil {
					// A completed locked scan charges the same visit.
					stats.Reset()
					m.seg.Scan(func(RecordID, []byte) bool { return true })
					wp, wb, wr := m.wantCharge()
					if p, b, r := readCharges(stats); p != wp || b != wb || r != wr {
						t.Fatalf("step %d (%s): Segment.Scan charged (%d %d %d), want (%d %d %d)", i, op, p, b, r, wp, wb, wr)
					}
				}
				// Views captured before later mutations answer from their cut.
				for _, h := range held {
					if err := h.verify(m.randProg(), &sc); err != nil {
						t.Fatalf("step %d (%s): held view drifted: %v", i, op, err)
					}
				}
				if held = append(held, cur); len(held) > 6 {
					held = held[1:]
				}
			}
		})
	}
}

// TestBitmapViewsReadableDuringMutation runs the same random life under
// a concurrent reader that keeps scanning previously published views —
// hot and cold — and reading their synopses while the segment is
// mutated, vacuumed, frozen and thawed underneath them. Run with -race:
// it pins the copy-on-write / fresh-position discipline, and the
// synopsis' copy-on-flip, that the lock-free read path depends on.
func TestBitmapViewsReadableDuringMutation(t *testing.T) {
	for seed := int64(11); seed <= 13; seed++ {
		stats := &Stats{}
		m := &matrixModel{t: t, rng: rand.New(rand.NewSource(seed)),
			seg: NewSegment(stats), model: make(map[RecordID]modelRec)}
		progs := []BitmapProgram{allLive, {Attrs: []int{1, 2, 3}, Disjunction: true}, {Attrs: []int{4, 7}}}

		published := make(chan capture)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc BitmapScratch
			var held []capture
			for {
				select {
				case c, ok := <-published:
					if !ok {
						return
					}
					if held = append(held, c); len(held) > 4 {
						held = held[1:]
					}
				default:
					runtime.Gosched()
				}
				for _, h := range held {
					for _, prog := range progs {
						if err := h.verify(prog, &sc); err != nil {
							t.Errorf("seed %d: concurrent reader: %v", seed, err)
							return
						}
					}
				}
			}
		}()
		for i := 0; i < 80 && !t.Failed(); i++ {
			m.step()
			select {
			case published <- m.capture():
			default: // reader busy or gone; keep mutating under its views
			}
		}
		close(published)
		wg.Wait()
	}
}

// TestScanDecodedColdImageFails is the regression test for scanning a
// cold segment rebuilt from its file image: it carries no presence
// matrix, so ScanBitmap must refuse with ErrNoMatrix and charge nothing
// rather than report zero candidates.
func TestScanDecodedColdImageFails(t *testing.T) {
	seg := NewSegment(nil)
	for i := 0; i < 300; i++ {
		if _, err := seg.InsertTagged([]byte(fmt.Sprintf("rec-%04d", i)), synopsis.Of(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	stats := &Stats{}
	dec, err := DecodeColdSegment(FreezeSegment(seg).Encode(), stats)
	if err != nil {
		t.Fatal(err)
	}
	var sc BitmapScratch
	cands, _, err := dec.View().ScanBitmap(BitmapProgram{Attrs: []int{1}, Disjunction: true}, &sc)
	if !errors.Is(err, ErrNoMatrix) {
		t.Fatalf("ScanBitmap on a decoded image: err = %v (%d candidates), want ErrNoMatrix", err, len(cands))
	}
	if p, b, r := readCharges(stats); p != 0 || b != 0 || r != 0 {
		t.Fatalf("refused ScanBitmap charged (pages=%d bytes=%d recs=%d); want nothing", p, b, r)
	}
}

// TestBitmapColdPruneReadsNoColdBytes is the cold-tier payoff: a frozen
// partition scanned with a program matching nothing inflates no blocks
// — the hot matrix answers the scan with zero cold bytes charged.
func TestBitmapColdPruneReadsNoColdBytes(t *testing.T) {
	stats := &Stats{}
	seg := NewSegment(stats)
	for i := 0; i < 400; i++ {
		if _, err := seg.InsertTagged([]byte(fmt.Sprintf("rec-%04d-%s", i, "pad-pad-pad")), synopsis.Of(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	cold := FreezeSegment(seg)
	stats.Reset()

	var sc BitmapScratch
	cands, _, err := cold.View().ScanBitmap(BitmapProgram{Attrs: []int{42}, Disjunction: true}, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Fatalf("program over an absent attribute yielded %d candidates", len(cands))
	}
	if cp, cb := stats.ColdSnapshot(); cp != 0 || cb != 0 {
		t.Fatalf("pruned frozen scan inflated cold data: pages=%d bytes=%d; want 0", cp, cb)
	}
	// The ordinary visit charge still stands (simulated I/O is never
	// skipped), matching the hot path.
	if _, b, r := readCharges(stats); b != cold.LiveBytes() || r != int64(cold.NumRecords()) {
		t.Fatalf("frozen bitmap scan charged bytes=%d recs=%d, want %d/%d",
			b, r, cold.LiveBytes(), cold.NumRecords())
	}
}
