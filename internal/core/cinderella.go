package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cinderella/internal/obs"
	"cinderella/internal/synopsis"
)

// Cinderella is the online partitioner of Algorithm 1. It is not safe for
// concurrent use; callers (the table layer) serialize operations.
type Cinderella struct {
	cfg    Config
	parts  map[PartitionID]*partition
	loc    map[EntityID]PartitionID
	nextID PartitionID
	moved  MoveListener
	rng    *rand.Rand

	// ordered is the catalog in ascending partition-id order, maintained
	// incrementally: ids are monotonic so creation appends, and drops
	// splice by binary search. Catalog scans read it directly instead of
	// re-sorting the map on every insert.
	ordered []*partition

	stats OpStats

	// obs, when set, receives live telemetry: counter deltas published
	// once per public operation (see publish) and structured decision
	// trace events. Nil means uninstrumented; the hot paths then pay only
	// nil checks and findBest stays allocation-free either way.
	obs     *obs.Registry
	lastPub OpStats

	// blender, when set, post-processes every findBest rating — the
	// reclusterer's workload-blended objective. Nil (the default, and
	// outside recluster batches) leaves Algorithm 1's attribute rating
	// untouched.
	blender RatingBlender
}

// RatingBlender adjusts the attribute-synopsis rating of one
// entity/partition pair. The reclusterer installs one for the duration
// of a re-rate batch, blending in a workload-relevance term derived
// from the recent query mix; the returned score replaces attrScore in
// findBest's comparison (negative best still opens a new partition,
// which is how workload-pure partitions get seeded).
type RatingBlender interface {
	Blend(e *Entity, pid PartitionID, pSyn *synopsis.Set, attrScore float64) float64
}

// SetRatingBlender installs (or, with nil, removes) the rating
// post-processor. Callers serialize with all other operations, same as
// every Cinderella method.
func (c *Cinderella) SetRatingBlender(b RatingBlender) { c.blender = b }

// Members returns the ids of pid's current members in insertion order
// (skipping ids whose slots were deleted). The reclusterer snapshots a
// victim's membership through this before re-rating each entity.
func (c *Cinderella) Members(pid PartitionID) []EntityID {
	p := c.parts[pid]
	if p == nil {
		return nil
	}
	out := make([]EntityID, 0, len(p.members))
	for _, id := range p.order {
		if _, ok := p.members[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// OpStats counts partitioner events for the experiments (Figure 8 reports
// split counts: 448/100/0 for B = 500/5000/50000 on the DBpedia set).
type OpStats struct {
	Inserts        int64
	Deletes        int64
	Updates        int64
	UpdateMoves    int64
	Splits         int64
	SplitCascades  int64 // splits triggered while redistributing a split
	SplitMoves     int64 // entities relocated by splits or merges
	Merges         int64 // partition merges performed by Compact
	NewPartitions  int64
	DropPartitions int64
	RatedPairs     int64 // entity/partition ratings computed
}

// NewCinderella returns a partitioner for cfg. It panics on invalid
// configuration (programmer error); use cfg.Validate to check first.
func NewCinderella(cfg Config) *Cinderella {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	seed := cfg.RandSeed
	if seed == 0 {
		seed = 1
	}
	c := &Cinderella{
		cfg:   cfg,
		parts: make(map[PartitionID]*partition),
		loc:   make(map[EntityID]PartitionID),
		rng:   rand.New(rand.NewSource(seed)),
	}
	return c
}

// SetMoveListener registers the placement observer.
func (c *Cinderella) SetMoveListener(l MoveListener) { c.moved = l }

// SetObserver attaches (or detaches, with nil) a telemetry registry.
// Counter publication starts from the current stats, so attaching to a
// live partitioner does not replay history.
func (c *Cinderella) SetObserver(r *obs.Registry) {
	c.obs = r
	c.lastPub = c.stats
}

// publish pushes the operation-counter deltas accumulated since the last
// publication into the registry: one batch of atomic adds per public
// operation instead of one per event, keeping instrumentation off the
// findBest inner loop.
func (c *Cinderella) publish() {
	if c.obs == nil {
		return
	}
	cur, prev := c.stats, c.lastPub
	c.lastPub = cur
	c.obs.Add(obs.CInserts, cur.Inserts-prev.Inserts)
	c.obs.Add(obs.CDeletes, cur.Deletes-prev.Deletes)
	c.obs.Add(obs.CUpdates, cur.Updates-prev.Updates)
	c.obs.Add(obs.CUpdateMoves, cur.UpdateMoves-prev.UpdateMoves)
	c.obs.Add(obs.CSplits, cur.Splits-prev.Splits)
	c.obs.Add(obs.CSplitCascades, cur.SplitCascades-prev.SplitCascades)
	c.obs.Add(obs.CSplitMoves, cur.SplitMoves-prev.SplitMoves)
	c.obs.Add(obs.CMerges, cur.Merges-prev.Merges)
	c.obs.Add(obs.CPartitionsCreated, cur.NewPartitions-prev.NewPartitions)
	c.obs.Add(obs.CPartitionsDropped, cur.DropPartitions-prev.DropPartitions)
	c.obs.Add(obs.CRatings, cur.RatedPairs-prev.RatedPairs)
}

// trace appends a decision event when a registry is attached.
func (c *Cinderella) trace(ev obs.Event) {
	if c.obs != nil {
		c.obs.TraceEvent(ev)
	}
}

// Config returns the active configuration.
func (c *Cinderella) Config() Config { return c.cfg }

// Stats returns a copy of the operation counters.
func (c *Cinderella) Stats() OpStats { return c.stats }

// NumPartitions returns the current partition count.
func (c *Cinderella) NumPartitions() int { return len(c.parts) }

// Locate returns the partition holding id.
func (c *Cinderella) Locate(id EntityID) (PartitionID, bool) {
	pid, ok := c.loc[id]
	return pid, ok
}

// Partitions snapshots all partition descriptors, ordered by id.
func (c *Cinderella) Partitions() []PartitionInfo {
	out := make([]PartitionInfo, 0, len(c.ordered))
	for _, p := range c.ordered {
		out = append(out, p.info())
	}
	return out
}

// Insert implements INSERTENTITY of Algorithm 1 against the full catalog.
func (c *Cinderella) Insert(e Entity) PartitionID {
	if e.ID == 0 {
		panic("core: entity id 0 is reserved")
	}
	if _, dup := c.loc[e.ID]; dup {
		panic(fmt.Sprintf("core: duplicate insert of entity %d", e.ID))
	}
	c.stats.Inserts++
	ent := e // private copy; synopsis is shared but treated immutably
	pid := c.insert(&ent, nil, NoPartition)
	c.publish()
	return pid
}

// insert places ent. If restrict is non-nil, only those partitions are
// candidates and no new partition may be created (the split
// redistribution mode of Algorithm 1 line 32). prev reports where the
// entity came from, for move notification.
func (c *Cinderella) insert(ent *Entity, restrict []*partition, prev PartitionID) PartitionID {
	best, bestRating := c.findBest(ent, restrict)

	// Negative best rating (or empty catalog): the entity fits nowhere
	// well; open a new partition (Algorithm 1 lines 9–13). Disabled in
	// restricted mode, where the better of the two targets always wins.
	if restrict == nil && (best == nil || bestRating < 0) {
		p := c.newPartition()
		p.add(ent, c.cfg.entitySize(ent))
		p.starterA = ent.ID
		c.loc[ent.ID] = p.id
		c.trace(obs.Event{Kind: obs.EvInsert, Entity: uint64(ent.ID), To: uint64(p.id)})
		c.notify(Placement{Entity: ent.ID, From: prev, To: p.id})
		return p.id
	}

	// Update the split starters with the incoming entity (lines 15–24).
	best.updateStarters(ent)

	// Full partition: split (lines 26–33), then place ent among the two
	// new partitions.
	// The split candidate set is the partition's members plus ent, so a
	// split is feasible whenever the partition holds at least one entity.
	if best.size+c.cfg.entitySize(ent) > c.cfg.MaxSize && len(best.members) >= 1 {
		return c.split(best, ent, prev)
	}

	// Normal case (line 36).
	best.add(ent, c.cfg.entitySize(ent))
	c.loc[ent.ID] = best.id
	if restrict == nil {
		c.trace(obs.Event{Kind: obs.EvInsert, Entity: uint64(ent.ID), To: uint64(best.id), Rating: bestRating})
	}
	c.notify(Placement{Entity: ent.ID, From: prev, To: best.id})
	return best.id
}

// findBest scans the catalog (or the restricted candidate set) for the
// best-rated partition, Algorithm 1 lines 3–7.
func (c *Cinderella) findBest(ent *Entity, restrict []*partition) (*partition, float64) {
	var best *partition
	bestRating := math.Inf(-1)
	sizeE := c.cfg.entitySize(ent)

	cands := c.ordered
	if restrict != nil {
		cands = restrict
	}
	for _, p := range cands {
		c.stats.RatedPairs++
		r := rate(c.cfg.Weight, ent, p.syn, sizeE, p.size)
		score := r.Global
		if c.cfg.DisableNormalization {
			score = r.Local
		}
		if c.blender != nil {
			score = c.blender.Blend(ent, p.id, p.syn, score)
		}
		if score > bestRating || (score == bestRating && (best == nil || p.id < best.id)) {
			bestRating = score
			best = p
		}
	}
	return best, bestRating
}

// split reorganizes full partition p around its split starters and places
// incoming entity ent into one of the two results (Algorithm 1 lines
// 26–33 plus the documented clarification that ent participates).
func (c *Cinderella) split(p *partition, ent *Entity, prev PartitionID) PartitionID {
	c.stats.Splits++

	starterA, starterB := c.chooseStarters(p, ent)

	pa := c.newPartition()
	pb := c.newPartition()
	c.notify(Placement{From: p.id, Dissolve: true})

	// Move the starters first (lines 29–30). Either starter may be the
	// incoming entity itself (it can have claimed a starter slot in
	// updateStarters).
	place := func(target *partition, se *Entity) {
		from := NoPartition
		if se.ID != ent.ID {
			p.remove(se.ID, c.cfg.entitySize(se))
			from = p.id
		}
		target.add(se, c.cfg.entitySize(se))
		target.starterA = se.ID
		c.loc[se.ID] = target.id
		if from != NoPartition {
			c.stats.SplitMoves++
			c.notify(Placement{Entity: se.ID, From: from, To: target.id})
		} else {
			c.notify(Placement{Entity: se.ID, From: prev, To: target.id})
		}
	}
	place(pa, starterA)
	place(pb, starterB)

	// Redistribute the remaining members through the insert procedure
	// restricted to the two new partitions (lines 31–33). This can cascade
	// into further splits, which the paper notes is possible but rare.
	targets := []*partition{pa, pb}
	rest := p.liveOrder()
	for _, id := range rest {
		m, ok := p.members[id]
		if !ok {
			continue
		}
		p.remove(id, c.cfg.entitySize(m))
		c.stats.SplitMoves++
		before := c.stats.Splits
		c.insert(m, targets, p.id)
		if c.stats.Splits != before {
			c.stats.SplitCascades += c.stats.Splits - before
			// A cascade replaced one of the targets; refresh the live set.
			targets = c.liveTargets(targets)
		}
	}

	// Place the incoming entity itself unless it already went in as a
	// starter. (c.loc cannot tell: in a cascade, ent is a member of the
	// outer split's source and still located there.)
	var result PartitionID
	if starterA.ID == ent.ID || starterB.ID == ent.ID {
		result = c.loc[ent.ID]
	} else {
		result = c.insert(ent, c.liveTargets(targets), prev)
	}

	if c.obs != nil {
		ev := obs.Event{
			Kind: obs.EvSplit, Entity: uint64(ent.ID), From: uint64(p.id),
			To: uint64(pa.id), To2: uint64(pb.id),
			StarterA: uint64(starterA.ID), StarterB: uint64(starterB.ID),
		}
		// Resulting synopsis sizes; a cascade may have replaced a target.
		if _, live := c.parts[pa.id]; live {
			ev.SynA = pa.syn.Len()
		}
		if _, live := c.parts[pb.id]; live {
			ev.SynB = pb.syn.Len()
		}
		c.trace(ev)
	}

	// The old partition is empty now; drop it (its id disappears from the
	// catalog, like the paper's DROP of the split table).
	c.dropPartition(p)
	return result
}

// liveTargets filters a candidate list down to partitions still in the
// catalog (cascaded splits drop and replace targets).
func (c *Cinderella) liveTargets(targets []*partition) []*partition {
	out := targets[:0]
	for _, t := range targets {
		if _, ok := c.parts[t.id]; ok {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		// All original targets were themselves split away; fall back to a
		// full catalog scan.
		return nil
	}
	return out
}

// chooseStarters resolves the split-starter pair, honouring the configured
// policy and repairing missing starters after deletions. The incoming
// entity ent is a legitimate candidate (it may already hold a slot).
func (c *Cinderella) chooseStarters(p *partition, ent *Entity) (*Entity, *Entity) {
	resolve := func(id EntityID) *Entity {
		if id == 0 {
			return nil
		}
		if id == ent.ID {
			return ent
		}
		return p.members[id]
	}

	candidates := func() []*Entity {
		out := make([]*Entity, 0, len(p.members)+1)
		for _, id := range p.liveOrder() {
			out = append(out, p.members[id])
		}
		out = append(out, ent)
		return out
	}

	switch c.cfg.StarterPolicy {
	case StarterExact:
		return mostDifferentPair(candidates())
	case StarterRandom:
		cs := candidates()
		i := c.rng.Intn(len(cs))
		j := c.rng.Intn(len(cs) - 1)
		if j >= i {
			j++
		}
		return cs[i], cs[j]
	}

	a, b := resolve(p.starterA), resolve(p.starterB)
	if a != nil && b != nil && a.ID != b.ID {
		return a, b
	}
	// Starter slots were invalidated by deletions; repair with the exact
	// pair over current members (splits are rare, partitions bounded).
	return mostDifferentPair(candidates())
}

// mostDifferentPair returns the pair with maximal synopsis difference
// (quadratic; used by StarterExact and starter repair).
func mostDifferentPair(es []*Entity) (*Entity, *Entity) {
	if len(es) < 2 {
		panic("core: split of partition with fewer than two entities")
	}
	bi, bj, bd := 0, 1, -1
	for i := 0; i < len(es); i++ {
		for j := i + 1; j < len(es); j++ {
			if d := diff(es[i], es[j]); d > bd {
				bi, bj, bd = i, j, d
			}
		}
	}
	return es[bi], es[bj]
}

// Delete removes an entity (Section III: the partitioning itself remains
// unchanged; empty partitions are deleted).
func (c *Cinderella) Delete(id EntityID) {
	pid, ok := c.loc[id]
	if !ok {
		return
	}
	c.stats.Deletes++
	p := c.parts[pid]
	e := p.members[id]
	p.remove(id, c.cfg.entitySize(e))
	delete(c.loc, id)
	c.trace(obs.Event{Kind: obs.EvDelete, Entity: uint64(id), From: uint64(pid)})
	if len(p.members) == 0 {
		c.dropPartition(p)
	}
	c.publish()
}

// Update re-runs the insert rating for a changed entity; the entity moves
// only if a different partition wins (Section III).
func (c *Cinderella) Update(e Entity) PartitionID {
	pid, ok := c.loc[e.ID]
	if !ok {
		return c.Insert(e)
	}
	c.stats.Updates++
	p := c.parts[pid]
	old := p.members[e.ID]

	// Temporarily take the entity out so ratings do not count it twice.
	p.remove(e.ID, c.cfg.entitySize(old))
	delete(c.loc, e.ID)

	ent := e
	best, bestRating := c.findBest(&ent, nil)

	if best != nil && best.id == pid && bestRating >= 0 {
		// Same partition wins: update in place.
		p.add(&ent, c.cfg.entitySize(&ent))
		p.updateStarters(&ent)
		c.loc[e.ID] = pid
		c.trace(obs.Event{Kind: obs.EvUpdate, Entity: uint64(e.ID), From: uint64(pid), To: uint64(pid), Rating: bestRating})
		c.publish()
		return pid
	}
	// A different partition (or a fresh one) wins: move via insert. The
	// vacated partition may now be empty.
	newPID := c.insert(&ent, nil, pid)
	c.stats.UpdateMoves++
	if op, ok := c.parts[pid]; ok && len(op.members) == 0 {
		c.dropPartition(op)
	}
	c.trace(obs.Event{Kind: obs.EvUpdate, Entity: uint64(e.ID), From: uint64(pid), To: uint64(newPID)})
	c.publish()
	return newPID
}

func (c *Cinderella) newPartition() *partition {
	c.nextID++
	c.stats.NewPartitions++
	p := newPartition(c.nextID)
	c.parts[p.id] = p
	// Ids are monotonically increasing, so appending keeps the catalog
	// slice id-sorted without re-sorting.
	c.ordered = append(c.ordered, p)
	c.trace(obs.Event{Kind: obs.EvNewPartition, To: uint64(p.id)})
	return p
}

func (c *Cinderella) dropPartition(p *partition) {
	if len(p.members) != 0 {
		panic("core: dropping non-empty partition")
	}
	c.stats.DropPartitions++
	delete(c.parts, p.id)
	if i := sort.Search(len(c.ordered), func(i int) bool { return c.ordered[i].id >= p.id }); i < len(c.ordered) && c.ordered[i].id == p.id {
		c.ordered = append(c.ordered[:i], c.ordered[i+1:]...)
	}
	c.trace(obs.Event{Kind: obs.EvDrop, From: uint64(p.id)})
	c.notify(Placement{Entity: 0, From: p.id, To: NoPartition})
}

// notify reports a placement if a listener is registered (see Placement
// for its kinds). Relocations of existing entities (From set) are traced
// as moves.
func (c *Cinderella) notify(pl Placement) {
	if pl.Entity != 0 && pl.From != NoPartition {
		c.trace(obs.Event{Kind: obs.EvMove, Entity: uint64(pl.Entity), From: uint64(pl.From), To: uint64(pl.To)})
	}
	if c.moved != nil {
		c.moved(pl)
	}
}

var _ Assigner = (*Cinderella)(nil)
