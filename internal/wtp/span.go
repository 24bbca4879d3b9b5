package wtp

import "fmt"

// This file implements stripe-span extraction and serialization: the unit of
// work a distributed solver ships to a remote worker. A span is a contiguous
// range of a Shard's stripes; SpanDoc is its JSON wire form and SpanStore the
// standalone columnar store a worker rebuilds from it. SpanStore reuses the
// exact per-stripe aggregation kernels of Shard (appendBundleVector, the
// per-stripe union cut), so a per-span result concatenated over a corpus's
// spans in stripe order is identical — element for element, rounding
// included — to the single-machine Shard reduction.

// SpanDoc is the wire form of a contiguous stripe span of a sharded WTP
// matrix: the global dimensions and stripe layout, the matrix version the
// span snapshotted, and the span's per-stripe columnar postings flattened in
// stripe order. It round-trips through JSON or the binary columnar codec
// (internal/codec — the compact default of the cluster feed) and rebuilds
// into a SpanStore on the receiving worker.
type SpanDoc struct {
	Consumers  int `json:"consumers"`   // global consumer count M
	Items      int `json:"items"`       // global item count N
	StripeSize int `json:"stripe_size"` // consumers per stripe of the source shard
	// Version is the span's opaque snapshot identity: every request against
	// the span must present it, so a holder of any other snapshot is
	// detected. Shard.Span seeds it with the matrix mutation version; a
	// distributed producer replaces it with a session-unique nonce, because
	// mutation counters of two different corpora can coincide.
	Version uint64 `json:"version"`
	Start   int    `json:"start"` // first stripe of the span
	End     int    `json:"end"`   // one past the last stripe
	// Offs holds the per-stripe, per-item segment offsets: stripe k of the
	// span owns Offs[k*(Items+1) : (k+1)*(Items+1)], offsets relative to
	// that stripe's own segment of IDs/Vals.
	Offs []int32 `json:"offs"`
	// IDs and Vals are the stripes' columnar postings concatenated in stripe
	// order: ascending consumer ids per item segment and the aligned WTP
	// values.
	IDs  []int32   `json:"ids"`
	Vals []float64 `json:"vals"`
}

// Span serializes stripes [s0, s1) of the shard as a SpanDoc. The document
// copies the columnar arrays, so it stays valid after the shard is dropped.
func (sh *Shard) Span(s0, s1 int) *SpanDoc {
	sh.check()
	if s0 < 0 || s1 < s0 || s1 > len(sh.stripes) {
		panic(fmt.Sprintf("wtp: span [%d,%d) outside %d stripes", s0, s1, len(sh.stripes)))
	}
	d := &SpanDoc{
		Consumers:  sh.w.m,
		Items:      sh.w.n,
		StripeSize: sh.size,
		Version:    sh.version,
		Start:      s0,
		End:        s1,
	}
	n := sh.w.n
	var entries int
	for s := s0; s < s1; s++ {
		entries += len(sh.stripes[s].ids)
	}
	d.Offs = make([]int32, 0, (s1-s0)*(n+1))
	d.IDs = make([]int32, 0, entries)
	d.Vals = make([]float64, 0, entries)
	for s := s0; s < s1; s++ {
		st := &sh.stripes[s]
		d.Offs = append(d.Offs, st.offs...)
		d.IDs = append(d.IDs, st.ids...)
		d.Vals = append(d.Vals, st.vals...)
	}
	return d
}

// SpanStore is a standalone columnar store of one stripe span, rebuilt from
// a SpanDoc on a worker (or materialized locally as a fallback replica). It
// serves the per-span reductions of the distributed evaluate path with the
// same per-stripe kernels as Shard, so results concatenate exactly. A
// SpanStore is immutable and safe for concurrent use.
type SpanStore struct {
	consumers  int
	items      int
	stripeSize int
	version    uint64
	start      int
	stripes    []Stripe
}

// Store validates the document and rebuilds its span store. The layout is
// checked against the limits New and Shard apply before anything is
// multiplied, so a hostile layout cannot wrap the offset count.
func (d *SpanDoc) Store() (*SpanStore, error) {
	if d.Consumers < 0 || d.Items < 0 || d.StripeSize <= 0 || d.Consumers > maxLen || d.Items > maxLen {
		return nil, fmt.Errorf("wtp: span doc has invalid layout %d×%d stripe %d", d.Consumers, d.Items, d.StripeSize)
	}
	if d.Start < 0 || d.End < d.Start || d.End-d.Start > maxLen {
		return nil, fmt.Errorf("wtp: span doc range [%d,%d) invalid", d.Start, d.End)
	}
	numStripes := d.End - d.Start
	if len(d.Offs) != numStripes*(d.Items+1) {
		return nil, fmt.Errorf("wtp: span doc has %d offsets for %d stripes × %d items", len(d.Offs), numStripes, d.Items)
	}
	if len(d.IDs) != len(d.Vals) {
		return nil, fmt.Errorf("wtp: span doc has %d ids but %d values", len(d.IDs), len(d.Vals))
	}
	sp := &SpanStore{
		consumers:  d.Consumers,
		items:      d.Items,
		stripeSize: d.StripeSize,
		version:    d.Version,
		start:      d.Start,
		stripes:    make([]Stripe, numStripes),
	}
	base := 0
	for k := 0; k < numStripes; k++ {
		st := &sp.stripes[k]
		st.lo = (d.Start + k) * d.StripeSize
		st.hi = st.lo + d.StripeSize
		if st.hi > d.Consumers {
			st.hi = d.Consumers
		}
		st.offs = d.Offs[k*(d.Items+1) : (k+1)*(d.Items+1)]
		seg := int(st.offs[d.Items])
		if seg < 0 || base+seg > len(d.IDs) {
			return nil, fmt.Errorf("wtp: span doc stripe %d overruns its postings", d.Start+k)
		}
		for i := 0; i < d.Items; i++ {
			if st.offs[i] < 0 || st.offs[i] > st.offs[i+1] {
				return nil, fmt.Errorf("wtp: span doc stripe %d has non-monotonic offsets", d.Start+k)
			}
		}
		st.ids = d.IDs[base : base+seg]
		st.vals = d.Vals[base : base+seg]
		for j, id := range st.ids {
			if int(id) < st.lo || int(id) >= st.hi {
				return nil, fmt.Errorf("wtp: span doc stripe %d lists consumer %d outside [%d,%d)", d.Start+k, id, st.lo, st.hi)
			}
			if st.vals[j] < 0 {
				return nil, fmt.Errorf("wtp: span doc has negative WTP %g", st.vals[j])
			}
		}
		base += seg
	}
	if base != len(d.IDs) {
		return nil, fmt.Errorf("wtp: span doc postings length %d does not match stripe segments %d", len(d.IDs), base)
	}
	return sp, nil
}

// Version returns the matrix version the span snapshotted; every RPC against
// the span carries it so a stale worker is detected, re-fed and never
// silently wrong.
func (sp *SpanStore) Version() uint64 { return sp.version }

// Bounds returns the span's consumer range [lo, hi).
func (sp *SpanStore) Bounds() (lo, hi int) {
	if len(sp.stripes) == 0 {
		lo = sp.start * sp.stripeSize
		return lo, lo
	}
	return sp.stripes[0].lo, sp.stripes[len(sp.stripes)-1].hi
}

// StripeRange returns the span's stripe range [start, end) in the source
// shard's numbering.
func (sp *SpanStore) StripeRange() (start, end int) { return sp.start, sp.start + len(sp.stripes) }

// Entries returns the number of non-zero WTP entries in the span.
func (sp *SpanStore) Entries() int {
	var n int
	for i := range sp.stripes {
		n += len(sp.stripes[i].ids)
	}
	return n
}

// Items returns the global item count N.
func (sp *SpanStore) Items() int { return sp.items }

// BundleVector is the span's contribution to Shard.BundleVector: the Eq. 1
// bundle WTP of every interested consumer in the span, reduced per stripe
// with the same kernel the shard uses, so concatenating the spans of a
// corpus in stripe order reproduces the single-machine result exactly.
func (sp *SpanStore) BundleVector(items []int, theta float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	return bundleStripes(sp.stripes, items, theta, dstIDs, dstVals)
}
