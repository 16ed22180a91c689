package core

import (
	"math"
	"sort"

	"cinderella/internal/obs"
)

// Compact merges underfilled partitions into well-fitting peers. The
// paper notes that many small partitions increase query overhead (more
// union branches) and catalog cost; deletions and low weights both
// produce them. Compact treats each small partition as a pseudo-entity
// (its synopsis and total size) and applies the Section IV rating against
// every other partition; a non-negative best rating with room to spare
// merges the two.
//
// threshold is the fill fraction below which a partition is considered
// underfilled (e.g. 0.25 → partitions under 25 % of MaxSize are merge
// candidates). Compact returns the number of merges performed. The
// partitioning invariants (placement map, synopses, capacity) are
// maintained; moves are reported through the MoveListener like split
// moves.
func (c *Cinderella) Compact(threshold float64) int {
	if threshold <= 0 {
		return 0
	}
	limit := int64(threshold * float64(c.cfg.MaxSize))
	merges := 0
	for {
		merged := c.compactOnce(limit)
		if !merged {
			c.publish()
			return merges
		}
		merges++
	}
}

// compactOnce performs the single best merge of an underfilled partition,
// returning false when none is possible.
func (c *Cinderella) compactOnce(limit int64) bool {
	// Candidates: smallest first, so fragments coalesce before touching
	// healthier partitions.
	var cands []*partition
	for _, p := range c.parts {
		if p.size <= limit {
			cands = append(cands, p)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].size != cands[j].size {
			return cands[i].size < cands[j].size
		}
		return cands[i].id < cands[j].id
	})

	for _, small := range cands {
		if _, live := c.parts[small.id]; !live {
			continue
		}
		target := c.bestMergeTarget(small)
		if target == nil {
			continue
		}
		c.merge(small, target)
		return true
	}
	return false
}

// bestMergeTarget rates the small partition as a pseudo-entity against
// all other partitions with enough room; nil if no partition rates
// non-negative.
func (c *Cinderella) bestMergeTarget(small *partition) *partition {
	pseudo := &Entity{Syn: small.syn, Size: small.bytes}
	sizeSmall := small.size
	var best *partition
	bestRating := math.Inf(-1)
	for _, p := range c.ordered {
		if p.id == small.id || p.size+sizeSmall > c.cfg.MaxSize {
			continue
		}
		c.stats.RatedPairs++
		r := rate(c.cfg.Weight, pseudo, p.syn, sizeSmall, p.size)
		score := r.Global
		if c.cfg.DisableNormalization {
			score = r.Local
		}
		if score > bestRating {
			bestRating = score
			best = p
		}
	}
	if best == nil || bestRating < 0 {
		return nil
	}
	return best
}

// merge dissolves src: it moves every member into dst and drops src.
func (c *Cinderella) merge(src, dst *partition) {
	c.notify(Placement{From: src.id, Dissolve: true})
	for _, id := range src.liveOrder() {
		m, ok := src.members[id]
		if !ok {
			continue
		}
		src.remove(id, c.cfg.entitySize(m))
		dst.add(m, c.cfg.entitySize(m))
		dst.updateStarters(m)
		c.loc[id] = dst.id
		c.stats.SplitMoves++
		c.notify(Placement{Entity: id, From: src.id, To: dst.id})
	}
	c.stats.Merges++
	c.trace(obs.Event{Kind: obs.EvMerge, From: uint64(src.id), To: uint64(dst.id)})
	c.dropPartition(src)
}
