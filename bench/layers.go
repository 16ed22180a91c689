package main

import (
	"path/filepath"
	"time"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
	"cinderella/internal/table"
	"cinderella/internal/wal"
)

// replayDocs bounds the single-threaded replay below the shard layer.
const replayDocs = 20000

// layerCosts are the per-operation costs of the layers below shard,
// which offer no interface to decorate: the run's own documents and
// queries are replayed through their public functions, one layer at a
// time, on one goroutine.
type layerCosts struct {
	MarshalNs       float64 // entity.Marshal per document
	UnmarshalNs     float64 // entity.UnmarshalInto per document
	RateNs          float64 // synopsis.RateCards per entity/partition pair
	FindBestNs      float64 // core.Cinderella.Insert per document: rating, findBest, splits
	StorageInsertNs float64 // storage.Segment.InsertTagged per record: page + sidecar + presence matrix
	TableInsertNs   float64 // table.Table.Insert per document, everything below included
	WALAppendNs     float64 // wal.Writer.Append per record, buffered
	WALSyncMs       float64 // Flush + SyncFile of the whole replayed log
	TableQueryUs    float64 // table.Table.SelectWithReport per query, one unsharded table
	CacheHitRatio   float64 // buffer cache holding half the table's pages, over the query replay
}

// tableInsertSelfNs is what the table layer adds on top of the layers
// it calls.
func (c layerCosts) tableInsertSelfNs() float64 {
	return max(0, c.TableInsertNs-c.FindBestNs-c.StorageInsertNs-c.MarshalNs)
}

func perOp(start time.Time, n int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(max(n, 1))
}

func replayLayers(ds *dataset, qs []query, list []int, dir string) (layerCosts, error) {
	var c layerCosts
	ents := ds.entities[:min(len(ds.entities), replayDocs)]
	newPartitioner := func() *core.Cinderella {
		return core.NewCinderella(core.Config{Weight: 0.2, MaxSize: 500})
	}

	// entity: encode and decode.
	recs := make([][]byte, len(ents))
	start := time.Now()
	for i, e := range ents {
		recs[i] = e.Marshal(nil)
	}
	c.MarshalNs = perOp(start, len(ents))
	var scratch entity.Entity
	start = time.Now()
	for _, rec := range recs {
		if _, err := entity.UnmarshalInto(&scratch, rec); err != nil {
			return c, err
		}
	}
	c.UnmarshalNs = perOp(start, len(recs))

	// core + synopsis: placement alone.
	syns := make([]*synopsis.Set, len(ents))
	for i, e := range ents {
		syns[i] = e.Synopsis()
	}
	part := newPartitioner()
	start = time.Now()
	for i, e := range ents {
		part.Insert(core.Entity{ID: core.EntityID(i + 1), Syn: syns[i], Size: e.Size()})
	}
	c.FindBestNs = perOp(start, len(ents))
	infos := part.Partitions()
	sink := 0
	start = time.Now()
	for i, s := range syns {
		and, or, missE, missP := synopsis.RateCards(s, infos[i%len(infos)].Synopsis)
		sink += and + or + missE + missP
	}
	c.RateNs = perOp(start, len(syns))
	_ = sink

	// storage: page, sidecar and presence-matrix write.
	seg := storage.NewSegment(&storage.Stats{})
	start = time.Now()
	for i, rec := range recs {
		if _, err := seg.InsertTagged(rec, syns[i]); err != nil {
			return c, err
		}
	}
	c.StorageInsertNs = perOp(start, len(recs))

	// table: the whole in-memory write path, then the read path.
	build := func(cache *storage.BufferCache) (*table.Table, float64) {
		t := table.New(table.Config{Partitioner: newPartitioner(), Dict: ds.dict, Cache: cache, Parallelism: 1})
		start := time.Now()
		for _, e := range ents {
			t.Insert(e)
		}
		return t, perOp(start, len(ents))
	}
	tbl, ns := build(nil)
	c.TableInsertNs = ns
	sets := make([]*synopsis.Set, len(qs))
	for i, q := range qs {
		sets[i] = synopsis.New(ds.dict.Len())
		for _, a := range q.Attrs {
			id, _ := ds.dict.Lookup(a)
			sets[i].Add(id)
		}
	}
	start = time.Now()
	for _, qi := range list {
		tbl.SelectWithReport(sets[qi])
	}
	c.TableQueryUs = perOp(start, len(list)) / 1e3
	pages := 0
	for _, pv := range tbl.Partitions() {
		pages += pv.Pages
	}
	cache := storage.NewBufferCache(max(pages/2, 1))
	cached, _ := build(cache)
	cache.Reset()
	for _, qi := range list {
		cached.SelectWithReport(sets[qi])
	}
	c.CacheHitRatio = cache.HitRatio()

	// wal: buffered append, then one flush + fsync.
	w, err := wal.Create(filepath.Join(dir, "replay.wal"))
	if err != nil {
		return c, err
	}
	start = time.Now()
	for i, rec := range recs {
		if err := w.Append(wal.Op{Kind: wal.KindInsert, ID: uint64(i + 1), Data: rec}); err != nil {
			w.Close()
			return c, err
		}
	}
	c.WALAppendNs = perOp(start, len(recs))
	start = time.Now()
	if _, err := w.Flush(); err != nil {
		w.Close()
		return c, err
	}
	if err := w.SyncFile(); err != nil {
		w.Close()
		return c, err
	}
	c.WALSyncMs = ms(time.Since(start))
	return c, w.Close()
}
