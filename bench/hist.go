package main

import (
	"math/bits"
	"time"
)

// hist is a fixed-size log-bucket latency histogram: 32 sub-buckets per
// power of two, so a bucket is at most 1/32 (3.1 %) wide relative to its
// lower bound. It is allocated once per client before the timed loop and
// record never allocates.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// 2^40 ns is ~18 minutes; anything slower lands in the last bucket.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 // position of the top bit, >= histSubBits
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	mant := (ns >> (uint(exp) - histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + int(mant)
}

// histLower returns the smallest value that lands in bucket i.
func histLower(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	exp := i/histSub + histSubBits - 1
	mant := uint64(i % histSub)
	return (histSub + mant) << (uint(exp) - histSubBits)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile sample (nearest-rank), placed inside
// its bucket by its rank among the bucket's samples, and how many samples
// lie beyond that bucket.
func (h *hist) quantile(q float64) (ns float64, beyond uint64) {
	if h.n == 0 {
		return 0, 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c > rank {
			lo := histLower(i)
			hi := lo + 1
			if i+1 < histBuckets {
				hi = histLower(i + 1)
			}
			within := (float64(rank-seen) + 0.5) / float64(c)
			return float64(lo) + within*float64(hi-lo), h.n - seen - c
		}
		seen += c
	}
	return float64(histLower(histBuckets - 1)), 0
}
