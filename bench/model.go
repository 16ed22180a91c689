package main

import (
	"sync"

	"cinderella/client"
)

// model is the reference the daemon's answers are checked against:
// every acknowledged write applied to a plain map. A query's expected
// answer is the OR-over-attributes filter over that map.
type model struct {
	mu   sync.Mutex
	docs map[client.ID]client.Doc
}

func newModel() *model { return &model{docs: make(map[client.ID]client.Doc)} }

func (m *model) put(id client.ID, doc client.Doc) {
	m.mu.Lock()
	m.docs[id] = doc
	m.mu.Unlock()
}

func (m *model) del(id client.ID) {
	m.mu.Lock()
	delete(m.docs, id)
	m.mu.Unlock()
}

func (m *model) get(id client.ID) (client.Doc, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.docs[id]
	return d, ok
}

func (m *model) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.docs)
}

// answer identifies a query result by its size and an order-independent
// hash of its id set.
type answer struct {
	Count int
	Hash  uint64
}

// mix is splitmix64's finalizer: ids are small consecutive integers, so
// they are scrambled before being summed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (a *answer) add(id client.ID) {
	a.Count++
	a.Hash += mix(uint64(id))
}

func matches(doc client.Doc, attrs []string) bool {
	for _, a := range attrs {
		if _, ok := doc[a]; ok {
			return true
		}
	}
	return false
}

// expect computes the model's answer to every query in qs.
func (m *model) expect(qs []query) []answer {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]answer, len(qs))
	for id, doc := range m.docs {
		for i, q := range qs {
			if matches(doc, q.Attrs) {
				out[i].add(id)
			}
		}
	}
	return out
}

// digestAll reduces a response to an answer without consulting the
// model: the cheap form used inside timed regions.
func digestAll(recs []client.Record) answer {
	var a answer
	for _, r := range recs {
		a.add(r.ID)
	}
	return a
}

// digest reduces a response to an answer over the ids the model knows,
// and counts the ones it does not. After a kill −9, writes that were in
// flight may have become durable without the harness ever learning
// their ids; they show up here as unknown and are bounded by the caller.
func (m *model) digest(recs []client.Record) (known answer, unknown int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range recs {
		if _, ok := m.docs[r.ID]; ok {
			known.add(r.ID)
		} else {
			unknown++
		}
	}
	return known, unknown
}
