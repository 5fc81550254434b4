package main

import "math/bits"

// hist is a log-linear (HDR-style) latency histogram over nanoseconds.
// Values below 2^subBits are counted exactly; above that every power of two
// is split into 2^subBits equal buckets, so a reported quantile is within
// one part in 2^subBits of the true sample — resolution the repository's own
// request recorder lacks, whose first bucket is 1 µs wide.
type hist struct {
	counts []int64
	n      int64
	max    int64
}

const (
	subBits  = 7
	subCount = 1 << subBits
	// octaves above the exact range: enough for any int64 nanosecond value.
	numBuckets = subCount + (63-subBits)*subCount
)

func newHist() *hist { return &hist{counts: make([]int64, numBuckets)} }

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 1 // v in [2^o, 2^(o+1))
	shift := o - subBits
	return subCount + shift*subCount + int(uint64(v)>>uint(shift)&(subCount-1))
}

// bucketBounds returns the half-open value range [lo, hi) of bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b < subCount {
		return int64(b), int64(b) + 1
	}
	shift := (b - subCount) / subCount
	m := int64((b-subCount)%subCount) + subCount
	return m << uint(shift), (m + 1) << uint(shift)
}

func (h *hist) observe(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the nearest-rank q-quantile (the ceil(q*n)-th smallest
// sample) as the midpoint of its bucket; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		if seen += c; seen >= rank {
			lo, hi := bucketBounds(b)
			return float64(lo) + float64(hi-lo-1)/2
		}
	}
	return float64(h.max)
}

// samplesBeyond returns how many samples lie above the q-quantile: a
// percentile is only reported with at least ten samples beyond it.
func (h *hist) samplesBeyond(q float64) int64 {
	return h.n - int64(q*float64(h.n))
}
