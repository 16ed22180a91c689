package obs

// The event trace records structured partitioner decisions in a bounded
// in-memory ring: which partition an insert chose and at what rating,
// which starter pair seeded a split and what the resulting partitions
// look like, when partitions appear and disappear. TraceDump snapshots
// the ring for post-mortem analysis in tests and experiments — the
// micro-scale counterpart of the paper's Figure 8 split accounting.

// EventKind tags a trace event.
type EventKind uint8

// Trace event kinds.
const (
	// EvInsert is an unrestricted placement decision: Entity was placed
	// into To at Rating (0 when a fresh partition was opened because no
	// candidate rated non-negative).
	EvInsert EventKind = iota + 1
	// EvNewPartition records partition To entering the catalog.
	EvNewPartition
	// EvSplit records a full split of From into To and To2, seeded by
	// the starter pair (StarterA, StarterB); SynA/SynB are the resulting
	// partitions' synopsis sizes after redistribution (0 if a cascade
	// replaced that target).
	EvSplit
	// EvMove is a physical relocation of Entity from From to To (split
	// redistribution, cascade, or merge).
	EvMove
	// EvUpdate records an entity update: To is the (possibly unchanged)
	// partition after re-rating.
	EvUpdate
	// EvDelete records an entity delete out of From.
	EvDelete
	// EvDrop records partition From leaving the catalog.
	EvDrop
	// EvMerge records Compact merging partition From into To.
	EvMerge
)

// String names the kind for dumps and JSON.
func (k EventKind) String() string {
	switch k {
	case EvInsert:
		return "insert"
	case EvNewPartition:
		return "new-partition"
	case EvSplit:
		return "split"
	case EvMove:
		return "move"
	case EvUpdate:
		return "update"
	case EvDelete:
		return "delete"
	case EvDrop:
		return "drop"
	case EvMerge:
		return "merge"
	}
	return "unknown"
}

// Event is one structured partitioner decision. Field meaning depends on
// Kind (see the kind constants); unused fields are zero. Shard is the id
// of the shard whose partitioner emitted the event (-1 when the producer
// holds the root handle: a library table opened without a shard view);
// TraceEvent stamps it from the handle, and TraceDump stamps Seq: the
// event's position among all events ever traced, counting from 0.
type Event struct {
	Seq      uint64    `json:"seq"`
	Kind     EventKind `json:"kind"`
	Shard    int32     `json:"shard"`
	Entity   uint64    `json:"entity,omitempty"`
	From     uint64    `json:"from,omitempty"`
	To       uint64    `json:"to,omitempty"`
	To2      uint64    `json:"to2,omitempty"`
	Rating   float64   `json:"rating,omitempty"`
	StarterA uint64    `json:"starter_a,omitempty"`
	StarterB uint64    `json:"starter_b,omitempty"`
	SynA     int       `json:"syn_a,omitempty"`
	SynB     int       `json:"syn_b,omitempty"`
}
