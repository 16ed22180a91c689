package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending slice:
// the smallest sample with at least p of the samples at or below it.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(asc)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(asc) {
		rank = len(asc) - 1
	}
	return asc[rank]
}

func median(v []float64) float64 { return percentile(sorted(v), 0.5) }

// tailLadder are the percentiles a timing may be reported at.
var tailLadder = []float64{0.9, 0.95, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the figure is one or two outliers.
const minBeyond = 10

// supportedTail returns the highest percentile of tailLadder that has
// at least minBeyond of n samples beyond it, or 0 when not even the
// lowest rung has.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		rank := int(math.Ceil(p * float64(n)))
		if n-rank >= minBeyond {
			best = p
		}
	}
	return best
}

// timing summarises latency samples: the median, p99, and the
// percentile rule's verdict on how far into the tail n samples reach.
type timing struct {
	N         int     `json:"samples"`
	P50       float64 `json:"p50"`
	P99       float64 `json:"p99"`
	Tail      float64 `json:"tail_percentile"` // highest rung with ≥ minBeyond samples beyond
	TailValue float64 `json:"tail_value"`
}

func summarize(samples []float64) timing {
	asc := sorted(samples)
	t := timing{N: len(asc), P50: percentile(asc, 0.5), P99: percentile(asc, 0.99)}
	if t.Tail = supportedTail(len(asc)); t.Tail > 0 {
		t.TailValue = percentile(asc, t.Tail)
	}
	return t
}
