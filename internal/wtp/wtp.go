// Package wtp models consumers' willingness to pay (WTP).
//
// The paper (Sec. 3) represents consumer preferences as an M×N matrix W
// where w[u][i] ≥ 0 is how much consumer u is willing to pay for item i.
// The matrix is derived from rating data (Sec. 6.1.1): a rating r on an item
// with list price p converts to WTP = (r / r_max) · λ · p, for a conversion
// factor λ ≥ 1. A bundle's WTP (Eq. 1) is the θ-adjusted sum of its items'
// WTPs: w[u][b] = (1+θ) Σ_{i∈b} w[u][i].
//
// Ratings are sparse (0.5% dense at the paper's scale), so the package keeps
// only per-item postings lists: the consumers with non-zero WTP for the item,
// in ascending order. The union scans the pricing code performs walk them,
// and a single-cell read (At) binary-searches one. Memory is proportional to
// entries + items, never to consumers × items.
package wtp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// MaxRating is the top of the rating scale used by FromRatings (5-star scale,
// as in the Amazon dataset the paper uses).
const MaxRating = 5

// Entry is one consumer's non-zero willingness to pay for an item.
type Entry struct {
	Consumer int
	Value    float64
}

// Matrix is an M consumers × N items willingness-to-pay matrix.
//
// Construct with New or FromRatings. The zero value is unusable.
type Matrix struct {
	m, n     int
	postings [][]Entry // per item: consumers with non-zero WTP, ascending
	colSum   []float64 // per item: total WTP (upper bound of item revenue)
	total    float64   // grand total WTP (upper bound of any revenue)
	version  uint64    // bumped by every mutation; Shard staleness checks
	// cow marks a matrix derived by WithDelta: its posting lists may share
	// backing arrays with the parent snapshot, so every write must clone the
	// touched posting list before storing through it.
	cow bool
}

// maxLen caps every length that declared dimensions alone make a corpus
// allocate, whatever its entry count: consumers, items, and a shard's
// stripes × (items + 1) int32 offsets. It turns absurd dimensions (corrupt
// input with sky-high ids, or a tiny upload declaring a huge shape) into an
// error instead of an out-of-memory kill. The costliest zero-entry
// declaration it admits is 2^20 consumers × (2^20 − 1) items in one stripe.
// Per item that costs about 32 B in the matrix and 325 B for a session's
// singleton nodes. Per consumer it costs 24 B for FreqItemset's
// transactions, and each offset costs 4 B. In total, 2^20 × (357 + 24 + 4)
// B = 385 MiB, under 512 MB. Paper scale (4,449 × 5,008) needs 5 × 5,009
// offsets at the default stripe size.
const maxLen = 1 << 20

// New returns an all-zero M×N matrix. Each dimension must lie in [0, 2^20].
func New(consumers, items int) (*Matrix, error) {
	if consumers < 0 || items < 0 || consumers > maxLen || items > maxLen {
		return nil, fmt.Errorf("wtp: matrix %d×%d outside [0, %d] per dimension", consumers, items, maxLen)
	}
	return &Matrix{
		m:        consumers,
		n:        items,
		postings: make([][]Entry, items),
		colSum:   make([]float64, items),
	}, nil
}

// MustNew is New but panics on error; intended for tests and examples.
func MustNew(consumers, items int) *Matrix {
	w, err := New(consumers, items)
	if err != nil {
		panic(err)
	}
	return w
}

// Consumers returns M, the number of consumers.
func (w *Matrix) Consumers() int { return w.m }

// Items returns N, the number of items.
func (w *Matrix) Items() int { return w.n }

// Set assigns consumer u's willingness to pay for item i. Values must be
// finite and non-negative; setting 0 removes any existing entry. Calls may
// come in any order — the per-item postings list stays sorted (binary
// search + insert, so ascending-consumer insertion is the cheap path).
func (w *Matrix) Set(u, i int, value float64) error {
	if u < 0 || u >= w.m || i < 0 || i >= w.n {
		return fmt.Errorf("wtp: index (%d,%d) out of range %d×%d", u, i, w.m, w.n)
	}
	if value < 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("wtp: willingness to pay %g must be finite and non-negative", value)
	}
	if w.put(u, i, value) {
		w.version++
	}
	return nil
}

// Delete removes consumer u's willingness to pay for item i: the cell becomes
// a true absence — it leaves the posting list and the column/grand totals, so
// it can never resurface through At, BundleVector, UnionVectors, or a
// serialized snapshot. Deleting an already-absent cell is a no-op (and does
// not bump the version).
func (w *Matrix) Delete(u, i int) error {
	if u < 0 || u >= w.m || i < 0 || i >= w.n {
		return fmt.Errorf("wtp: index (%d,%d) out of range %d×%d", u, i, w.m, w.n)
	}
	if w.put(u, i, 0) {
		w.version++
	}
	return nil
}

// put writes one cell — the posting list and the column and grand totals —
// and reports whether the value changed. Bounds and value validity are the
// caller's concern; a value of 0 removes the consumer's posting, so a
// posting never holds 0. On a copy-on-write matrix the touched posting list
// is cloned first, so snapshots sharing the parent's arrays are never
// written through.
func (w *Matrix) put(u, i int, value float64) bool {
	p := w.postings[i]
	k, found := slices.BinarySearchFunc(p, u, byConsumer)
	var old float64
	if found {
		old = p[k].Value
	}
	if old == value {
		return false
	}
	if w.cow {
		p = append([]Entry(nil), p...)
	}
	w.colSum[i] += value - old
	w.total += value - old
	switch {
	case value == 0:
		p = slices.Delete(p, k, k+1)
	case found:
		p[k].Value = value
	default:
		p = slices.Insert(p, k, Entry{Consumer: u, Value: value})
	}
	w.postings[i] = p
	return true
}

// byConsumer orders a posting against a consumer id for binary search.
func byConsumer(e Entry, u int) int { return cmp.Compare(e.Consumer, u) }

// MustSet is Set but panics on error; intended for tests and examples.
func (w *Matrix) MustSet(u, i int, value float64) {
	if err := w.Set(u, i, value); err != nil {
		panic(err)
	}
}

// At returns consumer u's willingness to pay for item i, by binary search
// of item i's postings.
func (w *Matrix) At(u, i int) float64 {
	p := w.postings[i]
	if k, found := slices.BinarySearchFunc(p, u, byConsumer); found {
		return p[k].Value
	}
	return 0
}

// Postings returns the consumers with non-zero WTP for item i, in ascending
// consumer order. The returned slice must not be modified.
func (w *Matrix) Postings(i int) []Entry { return w.postings[i] }

// ItemTotal returns the aggregate WTP for item i across all consumers.
func (w *Matrix) ItemTotal(i int) float64 { return w.colSum[i] }

// Total returns the aggregate WTP over all consumers and items. This is the
// revenue upper bound used by the revenue-coverage metric (Sec. 6.1.2).
func (w *Matrix) Total() float64 { return w.total }

// Entries returns the number of non-zero WTP entries in the matrix.
func (w *Matrix) Entries() int {
	var n int
	for _, p := range w.postings {
		n += len(p)
	}
	return n
}

// Version returns the matrix's mutation counter. Every successful Set that
// changes a value bumps it; snapshots (Shard) and downstream caches key on
// the version to detect staleness.
func (w *Matrix) Version() uint64 { return w.version }

// BundleWTP returns consumer u's willingness to pay for the bundle given by
// items, following Eq. 1: (1+θ) Σ w[u][i]. θ < -1 would produce negative
// WTP and is rejected by Params validation upstream; here it is clamped at 0.
func (w *Matrix) BundleWTP(u int, items []int, theta float64) float64 {
	var sum float64
	for _, i := range items {
		sum += w.At(u, i)
	}
	v := sum * (1 + theta)
	if v < 0 {
		return 0
	}
	return v
}

// BundleVector computes, for every consumer with non-zero WTP for at least
// one item of the bundle, that consumer's bundle WTP (Eq. 1). It returns
// parallel slices of consumer ids (ascending) and WTP values. The dst slices
// are reused if they have capacity, so callers can amortize allocations
// across the many candidate bundles the configuration algorithms price.
//
// This is the cold-start path: it rebuilds the vector from the raw item
// postings in O(Σ|postings| · log k) via a heap merge. The configuration
// algorithms' candidate-merge hot path instead derives merged vectors from
// the parents' cached vectors with UnionVectors, which is O(|a|+|b|).
func (w *Matrix) BundleVector(items []int, theta float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	dstIDs = dstIDs[:0]
	dstVals = dstVals[:0]
	switch len(items) {
	case 0:
		return dstIDs, dstVals
	case 1:
		// Fast path: single item, postings already hold the answer.
		for _, e := range w.postings[items[0]] {
			v := e.Value * (1 + theta)
			if v > 0 {
				dstIDs = append(dstIDs, e.Consumer)
				dstVals = append(dstVals, v)
			}
		}
		return dstIDs, dstVals
	case 2:
		// Two items: a plain two-pointer merge beats any heap.
		a, b := w.postings[items[0]], w.postings[items[1]]
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			var u int
			var sum float64
			switch {
			case a[i].Consumer < b[j].Consumer:
				u, sum = a[i].Consumer, a[i].Value
				i++
			case a[i].Consumer > b[j].Consumer:
				u, sum = b[j].Consumer, b[j].Value
				j++
			default:
				u, sum = a[i].Consumer, a[i].Value+b[j].Value
				i++
				j++
			}
			if v := sum * (1 + theta); v > 0 {
				dstIDs = append(dstIDs, u)
				dstVals = append(dstVals, v)
			}
		}
		for ; i < len(a); i++ {
			if v := a[i].Value * (1 + theta); v > 0 {
				dstIDs = append(dstIDs, a[i].Consumer)
				dstVals = append(dstVals, v)
			}
		}
		for ; j < len(b); j++ {
			if v := b[j].Value * (1 + theta); v > 0 {
				dstIDs = append(dstIDs, b[j].Consumer)
				dstVals = append(dstVals, v)
			}
		}
		return dstIDs, dstVals
	}
	// k ≥ 3: tournament merge over the items' postings lists via a binary
	// min-heap keyed by each cursor's head consumer, O(total · log k)
	// instead of the O(total · k) of a linear min-scan.
	h := make([]vecCursor, 0, len(items))
	for _, i := range items {
		if len(w.postings[i]) > 0 {
			h = append(h, vecCursor{list: w.postings[i]})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownCursor(h, i)
	}
	for len(h) > 0 {
		u := h[0].list[h[0].pos].Consumer
		var sum float64
		for len(h) > 0 && h[0].list[h[0].pos].Consumer == u {
			sum += h[0].list[h[0].pos].Value
			h[0].pos++
			if h[0].pos == len(h[0].list) {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			if len(h) > 1 {
				siftDownCursor(h, 0)
			}
		}
		if v := sum * (1 + theta); v > 0 {
			dstIDs = append(dstIDs, u)
			dstVals = append(dstVals, v)
		}
	}
	return dstIDs, dstVals
}

// vecCursor walks one posting list during the heap merge of BundleVector.
type vecCursor struct {
	list []Entry
	pos  int
}

// siftDownCursor restores the min-heap property (by head consumer id) for
// the subtree rooted at i.
func siftDownCursor(h []vecCursor, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		min := l
		if r := l + 1; r < len(h) && h[r].list[h[r].pos].Consumer < h[l].list[h[l].pos].Consumer {
			min = r
		}
		if h[i].list[h[i].pos].Consumer <= h[min].list[h[min].pos].Consumer {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// UnionVectors merges two ascending, aligned (ids, vals) consumer vectors
// into their union in O(|a|+|b|), scaling each side's values: a consumer on
// both sides gets sa·aVal + sb·bVal, a one-sided consumer sa·aVal (or
// sb·bVal). The dst slices are reused if they have capacity.
//
// This is the incremental merge-evaluation fast path: when two bundles with
// cached interested-consumer vectors merge, the merged bundle's Eq. 1 vector
// is a scaled union of the parents' vectors. A parent whose cached vector
// already includes the θ adjustment passes scale 1; a singleton parent
// (whose vector is raw, θ never applying to one item) passes 1+θ, so the
// result equals BundleVector over the united item set.
func UnionVectors(aIDs []int, aVals []float64, sa float64, bIDs []int, bVals []float64, sb float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	dstIDs = dstIDs[:0]
	dstVals = dstVals[:0]
	i, j := 0, 0
	for i < len(aIDs) && j < len(bIDs) {
		switch {
		case aIDs[i] < bIDs[j]:
			dstIDs = append(dstIDs, aIDs[i])
			dstVals = append(dstVals, sa*aVals[i])
			i++
		case aIDs[i] > bIDs[j]:
			dstIDs = append(dstIDs, bIDs[j])
			dstVals = append(dstVals, sb*bVals[j])
			j++
		default:
			dstIDs = append(dstIDs, aIDs[i])
			if sa == sb {
				// Same scale on both sides (e.g. θ = 0, or two singleton
				// parents): factor it out so the rounding matches the
				// sum-then-scale of BundleVector as closely as possible.
				dstVals = append(dstVals, sa*(aVals[i]+bVals[j]))
			} else {
				dstVals = append(dstVals, sa*aVals[i]+sb*bVals[j])
			}
			i++
			j++
		}
	}
	for ; i < len(aIDs); i++ {
		dstIDs = append(dstIDs, aIDs[i])
		dstVals = append(dstVals, sa*aVals[i])
	}
	for ; j < len(bIDs); j++ {
		dstIDs = append(dstIDs, bIDs[j])
		dstVals = append(dstVals, sb*bVals[j])
	}
	return dstIDs, dstVals
}

// CommonInterest reports whether any consumer has non-zero WTP for both
// items; the matching algorithm's first-iteration pruning rule (Sec. 5.3.1)
// only considers pairs with a common interested consumer.
func (w *Matrix) CommonInterest(i, j int) bool {
	a, b := w.postings[i], w.postings[j]
	ai, bi := 0, 0
	for ai < len(a) && bi < len(b) {
		switch {
		case a[ai].Consumer == b[bi].Consumer:
			return true
		case a[ai].Consumer < b[bi].Consumer:
			ai++
		default:
			bi++
		}
	}
	return false
}

// Rating is one (consumer, item, stars) observation plus the item's list
// price, the inputs to the ratings→WTP conversion of Sec. 6.1.1.
type Rating struct {
	Consumer int
	Item     int
	Stars    int // 1..MaxRating
}

// FromRatings builds a WTP matrix from ratings and per-item list prices
// using the paper's linear conversion: WTP = (stars / MaxRating) · λ · price.
func FromRatings(consumers, items int, ratings []Rating, prices []float64, lambda float64) (*Matrix, error) {
	if lambda < 1 {
		return nil, fmt.Errorf("wtp: conversion factor λ=%g must be ≥ 1", lambda)
	}
	if len(prices) != items {
		return nil, fmt.Errorf("wtp: %d prices for %d items", len(prices), items)
	}
	w, err := New(consumers, items)
	if err != nil {
		return nil, err
	}
	for _, r := range ratings {
		if r.Stars < 1 || r.Stars > MaxRating {
			return nil, fmt.Errorf("wtp: rating %d outside 1..%d", r.Stars, MaxRating)
		}
		if r.Item < 0 || r.Item >= items || r.Consumer < 0 || r.Consumer >= consumers {
			return nil, fmt.Errorf("wtp: rating refers to (%d,%d) outside %d×%d", r.Consumer, r.Item, consumers, items)
		}
		if prices[r.Item] < 0 {
			return nil, errors.New("wtp: negative list price")
		}
		v := float64(r.Stars) / MaxRating * lambda * prices[r.Item]
		if err := w.Set(r.Consumer, r.Item, v); err != nil {
			return nil, err
		}
	}
	return w, nil
}
