// Package cinderella is an embedded universal-table store with adaptive
// online horizontal partitioning, reproducing
//
//	K. Herrmann, H. Voigt, W. Lehner:
//	"Cinderella — Adaptive Online Partitioning of Irregularly Structured
//	Data", ICDE Workshops 2014.
//
// A Table stores schema-flexible records (string→value documents). While
// records are inserted, updated, and deleted, the Cinderella algorithm
// incrementally groups records with similar attribute sets into bounded
// partitions and maintains a per-partition attribute synopsis. Queries
// that touch only a subset of attributes prune all partitions whose
// synopsis is disjoint from the query, which makes selective queries on
// sparse, irregular data dramatically cheaper than scanning the whole
// universal table.
//
// The minimal workflow:
//
//	tbl := cinderella.Open(cinderella.Config{})
//	id := tbl.Insert(cinderella.Doc{"name": "Canon S120", "aperture": 2.0})
//	hits := tbl.Query("aperture")
//
// See the examples/ directory for complete programs and DESIGN.md for the
// mapping between this library and the paper.
package cinderella

import (
	"fmt"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
	"cinderella/internal/table"
)

// ID identifies a record in a Table.
type ID = core.EntityID

// Doc is a schema-flexible record: attribute name → value. Supported
// value types are int, int64, float64, and string; nil values are
// treated as absent attributes.
type Doc map[string]any

// Strategy selects the partitioning algorithm.
type Strategy int

// Available strategies. StrategyCinderella is the paper's algorithm; the
// others are the baselines used in the evaluation.
const (
	StrategyCinderella Strategy = iota
	// StrategyUniversal keeps all records in a single partition (the
	// unpartitioned universal table).
	StrategyUniversal
	// StrategyHash spreads records over a fixed number of partitions by
	// record id, like web-scale key-value stores.
	StrategyHash
	// StrategyRoundRobin fills bounded partitions in arrival order.
	StrategyRoundRobin
	// StrategySchemaExact groups records by exact attribute signature
	// (the w = 0 limit of Cinderella).
	StrategySchemaExact
)

// Config parameterizes a Table. The zero value gives Cinderella with the
// paper's default settings (w = 0.5, B = 5000 records).
type Config struct {
	// Strategy selects the partitioner. Default StrategyCinderella.
	Strategy Strategy
	// Weight is Cinderella's w ∈ [0,1] balancing positive against
	// negative evidence. Default 0.5. The paper finds 0.2–0.5 reasonable;
	// lower weights give more, purer partitions.
	Weight float64
	// PartitionSizeLimit is B: the maximum partition size in records (or
	// bytes when SizeInBytes). Default 5000.
	PartitionSizeLimit int64
	// SizeInBytes switches SIZE() from record counts to byte footprints.
	SizeInBytes bool
	// HashPartitions is the partition count for StrategyHash. Default 16.
	HashPartitions int
	// WorkloadQueries switches Cinderella to workload-based partitioning:
	// records relevant to the same queries cluster together. Each query
	// is the attribute set it references.
	WorkloadQueries [][]string
	// CachePages, when positive, routes all page accesses through a
	// simulated LRU buffer cache of that many pages; CacheStats reports
	// hit ratios. Zero disables the cache.
	CachePages int
	// Parallelism bounds the worker pool that scans non-pruned partitions
	// in Query/QueryWhere. 0 (default) uses GOMAXPROCS; 1 scans serially.
	// Results and reports are identical either way.
	Parallelism int
	// Obs, when non-nil, attaches a telemetry registry: operation and
	// query counters, latency histograms, the streaming EFFICIENCY
	// estimator, and the partitioner event trace. See internal/obs. A nil
	// registry costs one pointer check per operation.
	Obs *obs.Registry
	// Dict, when non-nil, is the attribute dictionary the table uses in
	// place of a private one, so several tables (a sharded store's
	// shards) share one id space. A shared dictionary may hold names
	// another table registered; a durable table logs every name it has
	// not logged yet, in id order, ahead of its next record.
	Dict *entity.Dictionary
}

// Table is a partitioned universal table. It is safe for concurrent use.
type Table struct {
	inner *table.Table
	dict  *entity.Dictionary
	cache *storage.BufferCache
	obsr  *obs.Registry
}

// Open creates a new in-memory table from cfg.
func Open(cfg Config) *Table {
	if cfg.Weight == 0 {
		cfg.Weight = 0.5
	}
	if cfg.PartitionSizeLimit == 0 {
		cfg.PartitionSizeLimit = 5000
	}
	if cfg.HashPartitions == 0 {
		cfg.HashPartitions = 16
	}
	mode := core.SizeCount
	if cfg.SizeInBytes {
		mode = core.SizeBytes
	}

	var assigner core.Assigner
	switch cfg.Strategy {
	case StrategyCinderella:
		assigner = core.NewCinderella(core.Config{
			Weight:   cfg.Weight,
			MaxSize:  cfg.PartitionSizeLimit,
			SizeMode: mode,
		})
	case StrategyUniversal:
		assigner = core.NewSingle(mode)
	case StrategyHash:
		assigner = core.NewHash(cfg.HashPartitions, mode)
	case StrategyRoundRobin:
		assigner = core.NewRoundRobin(cfg.PartitionSizeLimit, mode)
	case StrategySchemaExact:
		assigner = core.NewSchemaExact(cfg.PartitionSizeLimit, mode)
	default:
		panic(fmt.Sprintf("cinderella: unknown strategy %d", cfg.Strategy))
	}

	dict := cfg.Dict
	if dict == nil {
		dict = entity.NewDictionary()
	}
	tcfg := table.Config{Partitioner: assigner, Dict: dict, Parallelism: cfg.Parallelism, Obs: cfg.Obs}
	var cache *storage.BufferCache
	if cfg.CachePages > 0 {
		cache = storage.NewBufferCache(cfg.CachePages)
		tcfg.Cache = cache
	}
	if len(cfg.WorkloadQueries) > 0 {
		queries := make([]*synopsis.Set, len(cfg.WorkloadQueries))
		for i, attrs := range cfg.WorkloadQueries {
			ids := make([]int, len(attrs))
			for j, a := range attrs {
				ids[j] = dict.ID(a)
			}
			queries[i] = synopsis.Of(ids...)
		}
		tcfg.Synopsizer = table.WorkloadBased{Queries: queries}
	}
	return &Table{inner: table.New(tcfg), dict: dict, cache: cache, obsr: cfg.Obs}
}

// SetObserver attaches (or replaces) a telemetry registry after Open —
// useful to exclude a bulk load from the measured window. Safe with
// concurrent readers and writers.
func (t *Table) SetObserver(r *obs.Registry) {
	t.obsr = r
	t.inner.SetObserver(r)
}

// Observer returns the attached telemetry registry (nil if none).
func (t *Table) Observer() *obs.Registry { return t.obsr }

// NewObserver returns a telemetry registry with default options (256-query
// efficiency window, 4096-event trace ring), ready to pass as Config.Obs
// or to SetObserver. The obs package itself is internal, so this is the
// way to create a registry from outside the module; every method on the
// returned value (Serve, Mux, Snapshot, Efficiency, TraceDump, ...) is
// callable through it.
func NewObserver() *obs.Registry { return obs.New(obs.Options{}) }

// CacheStats returns the buffer cache's cumulative hits and misses; zeros
// when no cache is configured.
func (t *Table) CacheStats() (hits, misses int64) {
	if t.cache == nil {
		return 0, 0
	}
	return t.cache.Stats()
}

// toEntity converts a Doc, assigning attribute ids.
func (t *Table) toEntity(doc Doc) *entity.Entity {
	e := &entity.Entity{}
	for name, v := range doc {
		val, err := toValue(v)
		if err != nil {
			panic(fmt.Sprintf("cinderella: attribute %q: %v", name, err))
		}
		if val.IsNull() {
			continue
		}
		e.Set(t.dict.ID(name), val)
	}
	return e
}

func toValue(v any) (entity.Value, error) {
	switch x := v.(type) {
	case nil:
		return entity.Null(), nil
	case int:
		return entity.Int(int64(x)), nil
	case int64:
		return entity.Int(x), nil
	case float64:
		return entity.Float(x), nil
	case string:
		return entity.Str(x), nil
	default:
		return entity.Null(), fmt.Errorf("unsupported value type %T", v)
	}
}

func (t *Table) toDoc(e *entity.Entity) Doc {
	doc := make(Doc, e.NumAttrs())
	for _, f := range e.Fields() {
		name := t.dict.Name(f.Attr)
		switch f.Value.Kind() {
		case entity.KindInt:
			doc[name] = f.Value.AsInt()
		case entity.KindFloat:
			doc[name] = f.Value.AsFloat()
		case entity.KindString:
			doc[name] = f.Value.AsString()
		}
	}
	return doc
}

// Insert stores doc and returns its id. Documents with unsupported value
// types panic (programmer error).
func (t *Table) Insert(doc Doc) ID {
	return t.inner.Insert(t.toEntity(doc))
}

// Get returns the document with the given id.
func (t *Table) Get(id ID) (Doc, bool) {
	e, ok := t.inner.Get(id)
	if !ok {
		return nil, false
	}
	return t.toDoc(e), true
}

// Update replaces the document's content. The partitioner may move the
// record to a better-fitting partition. It reports whether id existed.
func (t *Table) Update(id ID, doc Doc) bool {
	return t.inner.Update(id, t.toEntity(doc))
}

// Delete removes the document. It reports whether id existed.
func (t *Table) Delete(id ID) bool {
	return t.inner.Delete(id)
}

// Len returns the number of live documents.
func (t *Table) Len() int { return t.inner.Len() }

// LastID returns the highest entity id ever assigned or inserted (0 when
// the table never held a document). Sharded recovery seeds its global id
// allocator from the per-shard maxima.
func (t *Table) LastID() ID { return t.inner.LastID() }

// Record is one query result.
type Record struct {
	ID  ID
	Doc Doc
}

// Query returns all documents instantiating at least one of the given
// attributes (SELECT … WHERE a1 IS NOT NULL OR a2 IS NOT NULL …),
// pruning partitions whose synopsis is disjoint from the attribute set.
// Unknown attribute names simply match nothing.
func (t *Table) Query(attrs ...string) []Record {
	ids := t.attrIDs(attrs)
	if len(ids) == 0 {
		return nil
	}
	return t.toRecords(t.inner.Select(ids...))
}

// QuerySpanned is Query filling an externally created query span — the
// shard coordinator's fan-out children come through here. sp may be
// nil. A query with no known attributes returns nil without touching
// the table; the span then stays empty.
func (t *Table) QuerySpanned(sp *obs.QuerySpan, attrs ...string) []Record {
	ids := t.attrIDs(attrs)
	if len(ids) == 0 {
		return nil
	}
	res, _ := t.inner.SelectSpanned(synopsis.Of(ids...), sp)
	return t.toRecords(res)
}

// QueryReport describes one query's execution.
type QueryReport = table.QueryReport

// QueryWithReport runs Query and also returns pruning counters.
func (t *Table) QueryWithReport(attrs ...string) ([]Record, QueryReport) {
	res, rep := t.inner.SelectWithReport(synopsis.Of(t.attrIDs(attrs)...))
	return t.toRecords(res), rep
}

// QueryWithReportSpanned runs QueryWithReport filling an externally
// created query span — the shard coordinator's fan-out children and the
// service layer's forced traces come through here. sp may be nil.
func (t *Table) QueryWithReportSpanned(sp *obs.QuerySpan, attrs ...string) ([]Record, QueryReport) {
	res, rep := t.inner.SelectSpanned(synopsis.Of(t.attrIDs(attrs)...), sp)
	return t.toRecords(res), rep
}

func (t *Table) attrIDs(attrs []string) []int {
	ids := make([]int, 0, len(attrs))
	for _, a := range attrs {
		if id, ok := t.dict.Lookup(a); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

func (t *Table) toRecords(res []table.Result) []Record {
	out := make([]Record, len(res))
	for i, r := range res {
		out[i] = Record{ID: r.ID, Doc: t.toDoc(r.Entity)}
	}
	return out
}

// Dict returns the table's attribute dictionary. The binary wire layer
// (internal/wire) uses it to negotiate attribute ids with clients so
// records cross the network in the entity codec's format; external
// module users cannot name the internal type and go through Doc instead.
func (t *Table) Dict() *entity.Dictionary { return t.dict }

// EntityRecord is one query result at the entity layer: the record id
// plus the decoded entity, attribute ids in the table dictionary's
// space. It exists for the binary wire path, which re-encodes entities
// with the internal codec instead of converting through Doc maps.
type EntityRecord struct {
	ID     ID
	Entity *entity.Entity
}

// QueryEntitiesSpanned is QuerySpanned without the Doc conversion:
// results keep their decoded entities, fresh per-query decodes owned by
// the caller. sp may be nil. A query with no known attributes returns
// nil without touching the table; the span then stays empty.
func (t *Table) QueryEntitiesSpanned(sp *obs.QuerySpan, attrs ...string) []EntityRecord {
	ids := t.attrIDs(attrs)
	if len(ids) == 0 {
		return nil
	}
	res, _ := t.inner.SelectSpanned(synopsis.Of(ids...), sp)
	out := make([]EntityRecord, len(res))
	for i, r := range res {
		out[i] = EntityRecord{ID: r.ID, Entity: r.Entity}
	}
	return out
}

// GetEntity is Get without the Doc conversion. The returned entity is a
// fresh decode owned by the caller.
func (t *Table) GetEntity(id ID) (*entity.Entity, bool) {
	return t.inner.Get(id)
}

// InsertEntity stores a pre-built entity whose attribute ids come from
// this table's dictionary and returns its id. It rejects entities
// referencing unregistered attribute ids — the binary ingest path
// decodes untrusted bytes, so the id-space check is the trust boundary.
// The entity is not retained; callers may reuse it.
func (t *Table) InsertEntity(e *entity.Entity) (ID, error) {
	if err := t.checkEntityAttrs(e); err != nil {
		return 0, err
	}
	return t.inner.Insert(e), nil
}

// UpdateEntity replaces a document with a pre-built entity (see
// InsertEntity). It reports whether id existed.
func (t *Table) UpdateEntity(id ID, e *entity.Entity) (bool, error) {
	if err := t.checkEntityAttrs(e); err != nil {
		return false, err
	}
	return t.inner.Update(id, e), nil
}

// checkEntityAttrs verifies every attribute id is registered. Fields are
// sorted, so checking the last suffices.
func (t *Table) checkEntityAttrs(e *entity.Entity) error {
	if fs := e.Fields(); len(fs) > 0 {
		if max := fs[len(fs)-1].Attr; max >= t.dict.Len() {
			return fmt.Errorf("cinderella: entity references unregistered attribute id %d (dictionary has %d)", max, t.dict.Len())
		}
	}
	return nil
}

// ScanAll returns every live document (a full scan over all partitions;
// no pruning is possible). Like Query it runs lock-free against a
// consistent snapshot, so a long scan never stalls writers.
func (t *Table) ScanAll() []Record {
	return t.toRecords(t.inner.ScanAll())
}

// ScanAllSpanned is ScanAll filling an externally created query span
// (sp may be nil) — the shard coordinator's fan-out children.
func (t *Table) ScanAllSpanned(sp *obs.QuerySpan) []Record {
	return t.toRecords(t.inner.ScanAllSpanned(sp))
}

// PartitionStat describes one partition. The json tags are the
// service-layer wire format (GET /v1/partitions).
type PartitionStat struct {
	Records    int      `json:"records"`
	Bytes      int64    `json:"bytes"`
	Pages      int      `json:"pages"`
	Attributes []string `json:"attributes"`
}

// Partitions returns the current partitioning, ordered by partition id.
func (t *Table) Partitions() []PartitionStat {
	views := t.inner.Partitions()
	out := make([]PartitionStat, len(views))
	for i, pv := range views {
		st := PartitionStat{Records: pv.Entities, Bytes: pv.Bytes, Pages: pv.Pages}
		for _, a := range pv.Synopsis.Elements(nil) {
			st.Attributes = append(st.Attributes, t.dict.Name(a))
		}
		out[i] = st
	}
	return out
}

// Compact merges underfilled partitions (fill fraction below threshold,
// e.g. 0.25) into well-fitting peers. Useful after heavy deletion, which
// leaves small partitions that inflate query overhead. Only effective
// with StrategyCinderella; other strategies return 0.
func (t *Table) Compact(threshold float64) int {
	return t.inner.Compact(threshold)
}

// IOStats returns cumulative simulated-I/O counters.
func (t *Table) IOStats() (pagesRead, pagesWritten, bytesRead, bytesWritten int64) {
	pr, pw, br, bw, _ := t.inner.Stats().Snapshot()
	return pr, pw, br, bw
}

// ResetIOStats zeroes the I/O counters.
func (t *Table) ResetIOStats() { t.inner.Stats().Reset() }

// ColdIOStats returns the cumulative cold-tier read charge: pages
// inflated and raw bytes decompressed from frozen partitions. Queries
// that prune every frozen partition charge nothing here — that is the
// tiering design's central claim, gated by the tier benchmark.
func (t *Table) ColdIOStats() (pagesRead, bytesRead int64) {
	return t.inner.Stats().ColdSnapshot()
}
