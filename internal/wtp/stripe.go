package wtp

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultStripeSize is the default number of consumers per stripe. Stripes
// of ~1k consumers keep a stripe's columnar postings for a typical bundle
// within L1/L2 while leaving enough stripes to farm out on large corpora.
const DefaultStripeSize = 1024

// Stripe is one fixed-size consumer range of a Shard. Its postings are
// stored columnar (structure-of-arrays): one ids array and one aligned vals
// array shared by all items, with per-item segment offsets. Compared to the
// Matrix's []Entry lists this halves the bytes touched by a consumer-id scan
// and keeps a stripe's working set contiguous, so per-stripe aggregation is
// cache-local and independent of every other stripe — the unit of work a
// scheduler can hand to a worker goroutine or, eventually, another machine.
type Stripe struct {
	lo, hi int       // consumer range [lo, hi)
	offs   []int32   // per item i: segment ids[offs[i]:offs[i+1]]
	ids    []int32   // consumer ids, ascending within each item segment
	vals   []float64 // WTP values aligned with ids
}

// Bounds returns the stripe's consumer range [lo, hi).
func (st *Stripe) Bounds() (lo, hi int) { return st.lo, st.hi }

// Item returns the stripe's columnar postings segment for item i: the
// consumers of this stripe with non-zero WTP for i (ascending) and their
// values. The slices must not be modified.
func (st *Stripe) Item(i int) ([]int32, []float64) {
	a, b := st.offs[i], st.offs[i+1]
	return st.ids[a:b], st.vals[a:b]
}

// Entries returns the total number of non-zero entries in the stripe.
func (st *Stripe) Entries() int { return len(st.ids) }

// Shard is an immutable striped snapshot of a Matrix: the consumer axis cut
// into fixed-size stripes, each holding columnar per-stripe postings.
// Because stripes partition the consumers in ascending-id order, any
// per-consumer aggregate over the whole matrix is the in-order concatenation
// (or sum) of independent per-stripe aggregates; BundleVector below reduces
// over stripes exactly that way.
//
// A Shard is built once (Matrix.Shard) and is safe for concurrent use. It
// snapshots the matrix at construction: mutating the matrix afterwards
// invalidates the shard, which every accessor guards against by panicking on
// a version mismatch rather than returning silently stale data.
type Shard struct {
	w       *Matrix
	version uint64
	size    int
	stripes []Stripe
}

// Shard builds a striped columnar snapshot of the matrix. stripeSize is the
// number of consumers per stripe; 0 or negative selects DefaultStripeSize.
// Every stripe holds items + 1 offsets whatever its entry count, so Shard
// errors before allocating when stripes × (items + 1) exceeds 2^20: a small
// stripe size over a wide matrix needs a larger one.
func (w *Matrix) Shard(stripeSize int) (*Shard, error) {
	if stripeSize <= 0 {
		stripeSize = DefaultStripeSize
	}
	numStripes := w.m / stripeSize
	if w.m%stripeSize != 0 || numStripes == 0 {
		numStripes++ // a partial last stripe; keep a 0-consumer matrix iterable
	}
	if numStripes > maxLen/(w.n+1) {
		return nil, fmt.Errorf("wtp: %d stripes × (%d items + 1) offsets exceed %d; raise the stripe size", numStripes, w.n, maxLen)
	}
	sh := &Shard{w: w, version: w.version, size: stripeSize, stripes: make([]Stripe, numStripes)}
	// Per-item cursors advance monotonically across stripes, so the whole
	// build is one pass over every posting list.
	cursor := make([]int, w.n)
	for s := range sh.stripes {
		lo := s * stripeSize
		hi := lo + stripeSize
		if hi > w.m {
			hi = w.m
		}
		st := &sh.stripes[s]
		st.lo, st.hi = lo, hi
		st.offs = make([]int32, w.n+1)
		var total int
		for i := 0; i < w.n; i++ {
			st.offs[i] = int32(total)
			p := w.postings[i]
			c := cursor[i]
			for c < len(p) && p[c].Consumer < hi {
				c++
			}
			total += c - cursor[i]
			cursor[i] = c
		}
		st.offs[w.n] = int32(total)
		st.ids = make([]int32, total)
		st.vals = make([]float64, total)
		// Second pass fills the columnar arrays; walk backwards through the
		// advanced cursors via the recorded offsets.
		for i := 0; i < w.n; i++ {
			seg := w.postings[i][cursor[i]-int(st.offs[i+1]-st.offs[i]) : cursor[i]]
			base := int(st.offs[i])
			for k, e := range seg {
				st.ids[base+k] = int32(e.Consumer)
				st.vals[base+k] = e.Value
			}
		}
	}
	return sh, nil
}

// Matrix returns the matrix the shard was built from.
func (sh *Shard) Matrix() *Matrix { return sh.w }

// Version returns the matrix version the shard snapshotted. Caches layered
// above a shard (e.g. a serving result cache) include it in their keys so
// entries from a replaced corpus can never be served for its successor.
func (sh *Shard) Version() uint64 { return sh.version }

// StripeSize returns the configured consumers-per-stripe.
func (sh *Shard) StripeSize() int { return sh.size }

// Stripes returns the number of stripes.
func (sh *Shard) Stripes() int { return len(sh.stripes) }

// Stripe returns stripe s.
func (sh *Shard) Stripe(s int) *Stripe {
	sh.check()
	return &sh.stripes[s]
}

// check panics when the underlying matrix has been mutated since the shard
// was built; a stale shard would silently misprice everything downstream.
func (sh *Shard) check() {
	if sh.version != sh.w.version {
		panic(fmt.Sprintf("wtp: shard is stale: matrix mutated (version %d → %d); rebuild with Matrix.Shard", sh.version, sh.w.version))
	}
}

// BundleVector is the striped reduction of Matrix.BundleVector: for every
// consumer with non-zero WTP for at least one item of the bundle, the
// consumer's Eq. 1 bundle WTP, as parallel ascending (ids, vals) slices.
// Each stripe is aggregated independently from its columnar segments and the
// per-stripe results concatenate in consumer order. The dst slices are
// reused if they have capacity.
func (sh *Shard) BundleVector(items []int, theta float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	sh.check()
	return bundleStripes(sh.stripes, items, theta, dstIDs, dstVals)
}

// bundleStripes reduces a bundle vector over consecutive stripes, the body
// shared by Shard.BundleVector and SpanStore.BundleVector.
func bundleStripes(stripes []Stripe, items []int, theta float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	dstIDs = dstIDs[:0]
	dstVals = dstVals[:0]
	if len(items) == 0 {
		return dstIDs, dstVals
	}
	scale := 1 + theta
	for s := range stripes {
		dstIDs, dstVals = stripes[s].appendBundleVector(items, scale, dstIDs, dstVals)
	}
	return dstIDs, dstVals
}

// appendBundleVector aggregates one stripe's contribution to a bundle
// vector, appending to dst.
func (st *Stripe) appendBundleVector(items []int, scale float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	switch len(items) {
	case 1:
		ids, vals := st.Item(items[0])
		for k, id := range ids {
			if v := vals[k] * scale; v > 0 {
				dstIDs = append(dstIDs, int(id))
				dstVals = append(dstVals, v)
			}
		}
		return dstIDs, dstVals
	case 2:
		aIDs, aVals := st.Item(items[0])
		bIDs, bVals := st.Item(items[1])
		i, j := 0, 0
		for i < len(aIDs) && j < len(bIDs) {
			var u int32
			var sum float64
			switch {
			case aIDs[i] < bIDs[j]:
				u, sum = aIDs[i], aVals[i]
				i++
			case aIDs[i] > bIDs[j]:
				u, sum = bIDs[j], bVals[j]
				j++
			default:
				u, sum = aIDs[i], aVals[i]+bVals[j]
				i++
				j++
			}
			if v := sum * scale; v > 0 {
				dstIDs = append(dstIDs, int(u))
				dstVals = append(dstVals, v)
			}
		}
		for ; i < len(aIDs); i++ {
			if v := aVals[i] * scale; v > 0 {
				dstIDs = append(dstIDs, int(aIDs[i]))
				dstVals = append(dstVals, v)
			}
		}
		for ; j < len(bIDs); j++ {
			if v := bVals[j] * scale; v > 0 {
				dstIDs = append(dstIDs, int(bIDs[j]))
				dstVals = append(dstVals, v)
			}
		}
		return dstIDs, dstVals
	}
	// k ≥ 3: heap merge over the stripe's columnar segments, the same
	// tournament as Matrix.BundleVector but confined to one stripe's
	// cache-resident arrays.
	h := make([]stripeCursor, 0, len(items))
	for _, i := range items {
		ids, vals := st.Item(i)
		if len(ids) > 0 {
			h = append(h, stripeCursor{ids: ids, vals: vals})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownStripe(h, i)
	}
	for len(h) > 0 {
		u := h[0].ids[h[0].pos]
		var sum float64
		for len(h) > 0 && h[0].ids[h[0].pos] == u {
			sum += h[0].vals[h[0].pos]
			h[0].pos++
			if h[0].pos == len(h[0].ids) {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			if len(h) > 1 {
				siftDownStripe(h, 0)
			}
		}
		if v := sum * scale; v > 0 {
			dstIDs = append(dstIDs, int(u))
			dstVals = append(dstVals, v)
		}
	}
	return dstIDs, dstVals
}

// stripeCursor walks one columnar segment during the per-stripe heap merge.
type stripeCursor struct {
	ids  []int32
	vals []float64
	pos  int
}

// siftDownStripe restores the min-heap property (by head consumer id) for
// the subtree rooted at i.
func siftDownStripe(h []stripeCursor, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		min := l
		if r := l + 1; r < len(h) && h[r].ids[h[r].pos] < h[l].ids[h[l].pos] {
			min = r
		}
		if h[i].ids[h[i].pos] <= h[min].ids[h[min].pos] {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// ForEachStripe runs fn(s, stripe) for every stripe, farming the stripes to
// up to workers goroutines (workers ≤ 1 runs inline). Stripes are disjoint
// consumer ranges, so fn invocations may write to per-consumer structures
// without synchronization as long as each write stays inside the stripe's
// Bounds. This is the single-machine form of the shard-level parallelism
// the stripe layout exists for.
func (sh *Shard) ForEachStripe(workers int, fn func(s int, st *Stripe)) {
	sh.check()
	n := len(sh.stripes)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for s := 0; s < n; s++ {
			fn(s, &sh.stripes[s])
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(cursor.Add(1)) - 1
				if s >= n {
					return
				}
				fn(s, &sh.stripes[s])
			}
		}()
	}
	wg.Wait()
}
