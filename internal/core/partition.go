package core

import (
	"cinderella/internal/synopsis"
)

// partition is the mutable catalog entry for one partition: its synopsis
// (kept exact via attribute reference counts), its members, and the pair
// of split starters.
type partition struct {
	id      PartitionID
	syn     *synopsis.Set
	refs    map[int]int // attribute id -> number of members carrying it
	members map[EntityID]*Entity
	order   []EntityID // insertion order (iteration determinism for splits)
	size    int64      // in SizeMode units
	bytes   int64      // raw bytes
	// Split starters: the heuristically most-different member pair.
	// Either may be 0 (unset) after deletions or right after creation.
	starterA EntityID
	starterB EntityID
}

func newPartition(id PartitionID) *partition {
	return &partition{
		id:      id,
		syn:     synopsis.New(0),
		refs:    make(map[int]int),
		members: make(map[EntityID]*Entity),
	}
}

// add registers e as a member and maintains the exact synopsis.
func (p *partition) add(e *Entity, size int64) {
	p.members[e.ID] = e
	p.order = append(p.order, e.ID)
	p.size += size
	p.bytes += e.Size
	e.Syn.ForEach(func(a int) {
		if p.refs[a] == 0 {
			p.syn.Add(a)
		}
		p.refs[a]++
	})
}

// remove unregisters the member with the given id and returns it.
func (p *partition) remove(id EntityID, size int64) *Entity {
	e, ok := p.members[id]
	if !ok {
		return nil
	}
	delete(p.members, id)
	p.size -= size
	p.bytes -= e.Size
	e.Syn.ForEach(func(a int) {
		p.refs[a]--
		if p.refs[a] == 0 {
			delete(p.refs, a)
			p.syn.Remove(a)
		}
	})
	if p.starterA == id {
		p.starterA = 0
	}
	if p.starterB == id {
		p.starterB = 0
	}
	// Compact the order slice lazily only when it has grown far beyond the
	// member count; lookups tolerate stale ids.
	if len(p.order) > 4*(len(p.members)+1) {
		kept := p.order[:0]
		for _, oid := range p.order {
			if _, live := p.members[oid]; live {
				kept = append(kept, oid)
			}
		}
		p.order = kept
	}
	return e
}

// liveOrder returns member ids in insertion order.
func (p *partition) liveOrder() []EntityID {
	out := make([]EntityID, 0, len(p.members))
	for _, id := range p.order {
		if _, ok := p.members[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// diff is the paper's DIFF(): the symmetric difference cardinality of two
// entity synopses.
func diff(a, b *Entity) int {
	return synopsis.XorCard(a.Syn, b.Syn)
}

// updateStarters implements Algorithm 1 lines 12–24: seed missing
// starters, otherwise replace one if the incoming entity forms a more
// different pair with an existing starter.
func (p *partition) updateStarters(e *Entity) {
	switch {
	case p.starterA == 0 && p.starterB == 0:
		p.starterA = e.ID
	case p.starterA == 0:
		// Repair after a deletion: slot the entity straight in.
		p.starterA = e.ID
	case p.starterB == 0:
		p.starterB = e.ID
	default:
		ea, eb := p.members[p.starterA], p.members[p.starterB]
		if ea == nil || eb == nil {
			// Starter ids that no longer resolve (should not happen; be
			// safe): reset and reseed.
			p.starterA, p.starterB = e.ID, 0
			return
		}
		// Algorithm 1 lines 18–24, verbatim: whichever pairing with e is
		// (at least tied for) most different wins.
		rEA := diff(e, ea)
		rEB := diff(e, eb)
		rAB := diff(ea, eb)
		max := rEA
		if rEB > max {
			max = rEB
		}
		if rAB > max {
			max = rAB
		}
		switch {
		case rEA == max && rEA > rAB:
			p.starterB = e.ID // e pairs with eA
		case rEB == max && rEB > rAB:
			p.starterA = e.ID // e pairs with eB
		}
	}
}

// info snapshots the partition for external consumption.
func (p *partition) info() PartitionInfo {
	return PartitionInfo{
		ID:       p.id,
		Synopsis: p.syn,
		Entities: len(p.members),
		Size:     p.size,
		Bytes:    p.bytes,
	}
}
