// Package core implements the paper's primary contribution: the Cinderella
// online partitioning algorithm (Algorithm 1) together with its partition
// rating (Section IV), split-starter maintenance, and the delete/update
// adjustment routines. It also provides the baseline partitioning
// strategies the evaluation compares against.
//
// The package is deliberately storage-agnostic: it decides *placement* of
// entities identified by an id, a synopsis, and a size. The table layer
// (package table) binds placements to heap segments and physically moves
// records when the partitioner reports moves.
package core

import (
	"fmt"

	"cinderella/internal/synopsis"
)

// EntityID identifies an entity across its lifetime in a table.
type EntityID uint64

// PartitionID identifies a partition in the catalog. Partition ids are
// never reused.
type PartitionID uint64

// Entity is the partitioner's view of a record: identity, synopsis, and
// size. For entity-based partitioning the synopsis lists instantiated
// attributes; for workload-based partitioning it lists the queries the
// entity is relevant to.
type Entity struct {
	ID   EntityID
	Syn  *synopsis.Set
	Size int64 // byte footprint; used when Config.SizeMode == SizeBytes
}

// SizeMode selects the unit of the SIZE() function from the paper.
type SizeMode uint8

const (
	// SizeCount charges 1 per entity; the partition size limit B is then a
	// row-count limit, matching the paper's experiments ("500 entities").
	SizeCount SizeMode = iota
	// SizeBytes charges the entity's byte footprint; B becomes a byte limit.
	SizeBytes
)

// StarterPolicy selects how split starters are maintained (ablation).
type StarterPolicy uint8

const (
	// StarterIncremental is the paper's heuristic: keep a pair, and replace
	// one of them whenever the incoming entity forms a more different pair.
	StarterIncremental StarterPolicy = iota
	// StarterExact recomputes the most-different pair over all members
	// before each split (quadratic; the cost the paper's heuristic avoids).
	StarterExact
	// StarterRandom picks two random members at split time (lower bound on
	// starter quality).
	StarterRandom
)

// Config parameterizes a Cinderella partitioner.
type Config struct {
	// Weight is w ∈ [0,1]: the balance between positive evidence
	// (homogeneity) and negative evidence (heterogeneity). The paper finds
	// 0.2–0.5 reasonable.
	Weight float64
	// MaxSize is the partition size limit B, in SizeMode units.
	MaxSize int64
	// SizeMode selects entity-count or byte sizing. Default SizeCount.
	SizeMode SizeMode
	// StarterPolicy selects split-starter maintenance. Default incremental.
	StarterPolicy StarterPolicy
	// DisableNormalization drops the global-rating denominator
	// r = r'/((SIZE(p)+SIZE(e))·|e∨p|) and compares raw local ratings r'
	// across partitions instead (ablation).
	DisableNormalization bool
	// RandSeed seeds the PRNG used by StarterRandom. Zero means seed 1.
	RandSeed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Weight < 0 || c.Weight > 1 {
		return fmt.Errorf("core: weight %v out of [0,1]", c.Weight)
	}
	if c.MaxSize <= 0 {
		return fmt.Errorf("core: max size %d must be positive", c.MaxSize)
	}
	if c.SizeMode != SizeCount && c.SizeMode != SizeBytes {
		return fmt.Errorf("core: unknown size mode %d", c.SizeMode)
	}
	return nil
}

// entitySize returns SIZE(e) in configured units.
func (c Config) entitySize(e *Entity) int64 {
	if c.SizeMode == SizeBytes {
		return e.Size
	}
	return 1
}

// Placement describes where an entity lives after an operation. It comes
// in three kinds:
//
//   - Entity != 0: the entity is placed in To. From is NoPartition for a
//     fresh insert, the entity's old partition for an update move, and
//     otherwise the dissolving partition the entity moves out of.
//   - Dissolve: partition From is being dissolved by a split or merge.
//     Every member of From is placed again (From set to it) within the
//     same operation, nothing is placed into From afterwards, and From
//     is then dropped. Dissolutions nest: a target that splits while a
//     split redistributes into it dissolves by the same rule.
//   - Entity == 0 and !Dissolve: partition From was dropped.
type Placement struct {
	Entity   EntityID
	From     PartitionID // 0 (NoPartition) for fresh inserts
	To       PartitionID
	Dissolve bool
}

// NoPartition is the zero PartitionID, never assigned to a real partition.
const NoPartition PartitionID = 0

// MoveListener observes every physical placement change: fresh inserts
// (From == NoPartition), update moves, dissolutions and the split and
// merge moves inside them, and drops. The table layer uses it to
// relocate records between segments.
type MoveListener func(Placement)

// Assigner is the placement interface shared by Cinderella and the
// baseline strategies.
type Assigner interface {
	// Insert places a new entity and returns its partition.
	Insert(e Entity) PartitionID
	// Delete removes an entity. Unknown ids are a no-op.
	Delete(id EntityID)
	// Update re-evaluates an entity after its synopsis/size changed and
	// returns its (possibly new) partition.
	Update(e Entity) PartitionID
	// Locate returns the partition currently holding id.
	Locate(id EntityID) (PartitionID, bool)
	// Partitions returns a snapshot of all partition descriptors.
	Partitions() []PartitionInfo
	// SetMoveListener registers the observer for placement changes. It
	// must be called before any Insert.
	SetMoveListener(MoveListener)
}

// PartitionInfo is a read-only partition descriptor for catalogs, pruning,
// and metrics.
type PartitionInfo struct {
	ID       PartitionID
	Synopsis *synopsis.Set // exact union of member synopses (do not modify)
	Entities int           // member count
	Size     int64         // total size in SizeMode units
	Bytes    int64         // total byte footprint regardless of SizeMode
}
