package main

import (
	"fmt"
	"math"
	"math/rand"

	"cinderella/client"
	"cinderella/internal/datagen"
	"cinderella/internal/entity"
	"cinderella/internal/synopsis"
	"cinderella/internal/workload"
)

// query is one attribute-set query (OR over attributes).
type query struct {
	Attrs []string
	Sel   float64 // measured selectivity on the data set's head
}

// dataset is everything a run's inputs derive from: the documents in
// arrival order, their payload sizes, and the two query buckets. The
// population and its arrival order are part of the workload and the
// same for every seed; the seed decides the phase of every query
// stream and the mixed workload's write sequence (kinds and targets).
//
// Arrival order is fixed because Cinderella's placement is chaotic in
// it: the same 30k documents preloaded in ten seeded orders ran at
// 18.9k–26.7k acked/s and reopened in 0.28–0.70 s, and even the frame
// interleaving of two connections moves the reopen of one store between
// 0.44 and 1.0 s. A seeded order would bury a 10 % regression under
// 20–40 % of input variance; with the order fixed, runs with different
// seeds are samples of one workload and their metrics can be compared.
type dataset struct {
	docs     []client.Doc
	entities []*entity.Entity // same documents in the generator's dictionary
	dict     *entity.Dictionary
	payload  []int   // bytes of each document in the repo's record codec
	sel      []query // selective bucket: selectivity ≤ 0.25, rank 0 first
	med      []query // medium bucket: 0.25 < selectivity ≤ 0.5
}

// populationSeed fixes the generated population (see dataset).
const populationSeed = 1

// selectivitySample bounds how many documents query selectivity is
// measured on; the data set is i.i.d. in generation order, so the head
// is a fair sample.
const selectivitySample = 5000

// perBucket is how many representative queries each bucket keeps.
const perBucket = 12

func generate(n int) (*dataset, error) {
	ds, err := datagen.Generate(datagen.Config{NumEntities: n, Seed: populationSeed})
	if err != nil {
		return nil, err
	}
	out := &dataset{
		docs:     make([]client.Doc, n),
		entities: ds.Entities,
		dict:     ds.Dict,
		payload:  make([]int, n),
	}
	var buf []byte
	for i, e := range ds.Entities {
		out.docs[i] = entityDoc(e, ds.Dict)
		buf = e.Marshal(buf[:0])
		out.payload[i] = len(buf)
	}
	syn := make([]*synopsis.Set, min(n, selectivitySample))
	for i := range syn {
		syn[i] = ds.Entities[i].Synopsis()
	}
	qs := workload.Generate(syn, 20)
	workload.Measure(qs, syn)
	// Four buckets of width 0.25: bucket 0 is the selective one, bucket
	// 1 the medium one; the upper half (up to universal) is not used.
	for _, q := range workload.Representatives(qs, 4, perBucket) {
		bq := query{Sel: q.Selectivity}
		for _, a := range q.Attrs.Elements(nil) {
			bq.Attrs = append(bq.Attrs, ds.Dict.Name(a))
		}
		switch {
		case q.Selectivity <= 0.25:
			out.sel = append(out.sel, bq)
		case q.Selectivity <= 0.5:
			out.med = append(out.med, bq)
		}
	}
	if len(out.sel) == 0 || len(out.med) == 0 {
		return nil, fmt.Errorf("bench: %d documents give an empty query bucket (%d selective, %d medium)", n, len(out.sel), len(out.med))
	}
	return out, nil
}

// entityDoc converts a generated entity into the client's Doc shape.
func entityDoc(e *entity.Entity, dict *entity.Dictionary) client.Doc {
	doc := make(client.Doc, e.NumAttrs())
	for _, f := range e.Fields() {
		name := dict.Name(f.Attr)
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

// queries returns the run's distinct queries: selective bucket first,
// then medium. A queryStream draws indexes into this list.
func (d *dataset) queries() []query {
	return append(append([]query(nil), d.sel...), d.med...)
}

const (
	zipfS       = 1.2 // skew over the rank inside a bucket: weight ∝ (1+rank)^-s
	selectiveP  = 0.8 // share of queries from the selective bucket
	streamSalt  = 0x9e3779b97f4a7c15
	mixedSalt   = 0x6a09e667f3bcc908
	probeReader = 1 << 20 // reader index of the fixed probe list
)

// queryWeights is the query mix: 80 % selective, 20 % medium, Zipf
// (s = 1.2) over the rank inside each bucket, indexed like
// dataset.queries(). Shifted reverses the ranking inside each bucket, so
// the attributes that were the cold tail become the hot head (the
// adversarial shift of the mixed workload).
func queryWeights(d *dataset, shifted bool) []float64 {
	w := make([]float64, 0, len(d.sel)+len(d.med))
	for _, b := range []struct {
		n     int
		share float64
	}{{len(d.sel), selectiveP}, {len(d.med), 1 - selectiveP}} {
		var sum float64
		for r := 0; r < b.n; r++ {
			sum += math.Pow(float64(1+r), -zipfS)
		}
		for i := 0; i < b.n; i++ {
			r := i
			if shifted {
				r = b.n - 1 - i
			}
			w = append(w, b.share*math.Pow(float64(1+r), -zipfS)/sum)
		}
	}
	return w
}

// spread realizes a weight vector as an evenly interleaved sequence
// (smooth weighted round-robin): over any window each index appears in
// proportion to its weight, to within one occurrence. A medium query
// costs some twenty times a selective one, so a randomly drawn mix
// makes throughput follow the luck of the draw; this one follows the
// distribution exactly and leaves only the system's own noise.
type spread struct {
	w, cur []float64
}

func newSpread(w []float64, rng *rand.Rand) *spread {
	s := &spread{w: w, cur: make([]float64, len(w))}
	for i := range s.cur {
		s.cur[i] = w[i] * rng.Float64() // the seed picks the phase
	}
	return s
}

func (s *spread) next() int {
	best := 0
	for i := range s.cur {
		s.cur[i] += s.w[i]
		if s.cur[i] > s.cur[best] {
			best = i
		}
	}
	s.cur[best]--
	return best
}

// queryStream is one reader's seeded query sequence, before and after
// the shift.
type queryStream struct {
	plain, shifted *spread
}

func newQueryStream(seed int64, reader int, d *dataset) *queryStream {
	rng := rand.New(rand.NewSource(seed ^ int64(streamSalt*uint64(reader+1))))
	return &queryStream{
		plain:   newSpread(queryWeights(d, false), rng),
		shifted: newSpread(queryWeights(d, true), rng),
	}
}

// next returns an index into dataset.queries().
func (s *queryStream) next(shifted bool) int {
	if shifted {
		return s.shifted.next()
	}
	return s.plain.next()
}

// probeList is a workload's fixed probe list: the first n queries of
// the stream reserved for probing, pre- or post-shift.
func probeList(seed int64, d *dataset, n int, shifted bool) []int {
	s := newQueryStream(seed, probeReader, d)
	out := make([]int, n)
	for i := range out {
		out[i] = s.next(shifted)
	}
	return out
}

// Kinds of a mixed-workload write.
const (
	opInsert byte = iota
	opUpdate
	opDelete
)

// mixedOp is one write of the mixed workload. Doc indexes dataset.docs
// (the content of an insert or update); Target indexes the preloaded
// documents in preload order (the victim of an update or delete).
type mixedOp struct {
	Kind   byte
	Doc    int
	Target int
}

// mixedOps is the paced writer's sequence: 80 % insert / 15 % update /
// 5 % delete. New content comes from the documents after the preloaded
// ones; each preloaded document is updated or deleted at most once, so
// concurrent acks cannot reorder the outcome.
func mixedOps(seed int64, preload, n int) []mixedOp {
	rng := rand.New(rand.NewSource(seed ^ int64(mixedSalt>>1)))
	targets := rng.Perm(preload)
	ops := make([]mixedOp, n)
	next := preload
	for i := range ops {
		r := rng.Float64()
		switch {
		case r < 0.80 || len(targets) == 0:
			ops[i] = mixedOp{Kind: opInsert, Doc: next}
			next++
		case r < 0.95:
			ops[i] = mixedOp{Kind: opUpdate, Doc: next, Target: targets[0]}
			next++
			targets = targets[1:]
		default:
			ops[i] = mixedOp{Kind: opDelete, Target: targets[0]}
			targets = targets[1:]
		}
	}
	return ops
}
