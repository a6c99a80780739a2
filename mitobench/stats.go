package main

import (
	"math"
	"slices"
)

// reservoirCap bounds the samples kept per span: a churn storm makes
// millions of faults, and uniform sampling keeps the percentiles honest
// without keeping them all.
const reservoirCap = 1 << 16

// reservoir is a uniform sample of a stream (Algorithm R) with a fixed
// xorshift generator, so the kept sample depends only on the stream.
type reservoir struct {
	s   []int64
	n   int
	rng uint64
}

func (r *reservoir) add(v int64) {
	r.n++
	if len(r.s) < reservoirCap {
		r.s = append(r.s, v)
		return
	}
	if r.rng == 0 {
		r.rng = 0x9e3779b97f4a7c15
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if i := r.rng % uint64(r.n); i < reservoirCap {
		r.s[i] = v
	}
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, or 0
// for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the midpoint median of xs, or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
