// Store: the production-shaped workflow — a durable document store with
// write-ahead logging, crash recovery, checkpointing, value-predicate
// queries, and partition compaction after churn.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"cinderella"
)

func main() {
	dir, err := os.MkdirTemp("", "cinderella-store")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "catalog.wal")
	cfg := cinderella.Config{Weight: 0.3, PartitionSizeLimit: 500}

	// Session 1: ingest, then "crash" (close without checkpoint).
	store, err := cinderella.OpenFile(path, cfg)
	if err != nil {
		log.Fatal(err)
	}
	var cameraID cinderella.ID
	for i := 0; i < 2000; i++ {
		var doc cinderella.Doc
		switch i % 3 {
		case 0:
			doc = cinderella.Doc{"sku": i, "kind": "camera", "aperture": 1.4 + float64(i%40)/10, "price": 199.0 + float64(i%900)}
		case 1:
			doc = cinderella.Doc{"sku": i, "kind": "tv", "screen": 32 + i%60, "price": 299.0 + float64(i%2500)}
		default:
			doc = cinderella.Doc{"sku": i, "kind": "disk", "capacity_tb": 1 + i%20, "price": 59.0 + float64(i%400)}
		}
		id, err := store.Insert(doc)
		if err != nil {
			log.Fatal(err)
		}
		if cameraID == 0 && i%3 == 0 {
			cameraID = id
		}
	}
	if err := store.Sync(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 1: %d documents in %d partitions\n", store.Len(), len(store.Partitions()))
	store.Close()

	// Session 2: recover, query with predicates, churn, compact.
	store, err = cinderella.OpenFile(path, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	fmt.Printf("session 2: recovered %d documents in %d partitions\n",
		store.Len(), len(store.Partitions()))

	if doc, ok := store.Get(cameraID); ok {
		fmt.Printf("recovered first camera: sku=%v aperture=%v\n", doc["sku"], doc["aperture"])
	}

	// Range query: cheap cameras with bright lenses. Only partitions
	// holding both attributes are read.
	rows, rep := store.QueryWhere(
		cinderella.Where("aperture", "<=", 2.0),
		cinderella.Where("price", "<", 400.0),
	)
	fmt.Printf("bright cheap cameras: %d (touched %d/%d partitions)\n",
		len(rows), rep.PartitionsTouched, rep.PartitionsTotal)

	// Discontinue all disks, then compact the fragmented partitions.
	removed := 0
	for _, r := range store.Query("capacity_tb") {
		if ok, err := store.Delete(r.ID); err != nil {
			log.Fatal(err)
		} else if ok {
			removed++
		}
	}
	before := len(store.Partitions())
	merges, err := store.Compact(0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted %d disks; compacted %d -> %d partitions (%d merges)\n",
		removed, before, len(store.Partitions()), merges)

	// Checkpoint shrinks the log to the live data.
	fi, _ := os.Stat(path)
	if err := store.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fi2, _ := os.Stat(path)
	fmt.Printf("checkpoint: log %d KB -> %d KB\n", fi.Size()/1024, fi2.Size()/1024)
}
