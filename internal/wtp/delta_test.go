package wtp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randDelta draws a batch of mutations against an m×n matrix: adds, value
// updates, deletes, duplicate coordinates (last wins), and no-op updates that
// rewrite the current value.
func randDelta(rng *rand.Rand, w *Matrix, count int) []Cell {
	cells := make([]Cell, 0, count)
	for len(cells) < count {
		u, i := rng.Intn(w.Consumers()), rng.Intn(w.Items())
		switch rng.Intn(5) {
		case 0: // delete (possibly of an absent cell)
			cells = append(cells, Cell{Consumer: u, Item: i, Delete: true})
		case 1: // no-op update: rewrite whatever is there now
			cells = append(cells, Cell{Consumer: u, Item: i, Value: w.At(u, i)})
		default: // add or update with a fresh value
			cells = append(cells, Cell{Consumer: u, Item: i, Value: math.Round(rng.Float64()*1000) / 10})
		}
		// Occasionally duplicate the previous coordinate with a new value so
		// last-wins collapsing is exercised.
		if len(cells) < count && rng.Intn(4) == 0 {
			prev := cells[len(cells)-1]
			cells = append(cells, Cell{Consumer: prev.Consumer, Item: prev.Item, Value: math.Round(rng.Float64()*1000) / 10})
		}
	}
	return cells
}

// applyRebuild replays the delta onto a from-scratch copy of w via Set/Delete,
// the reference semantics WithDelta must match.
func applyRebuild(t *testing.T, w *Matrix, cells []Cell) *Matrix {
	t.Helper()
	nw := MustNew(w.Consumers(), w.Items())
	for u := 0; u < w.Consumers(); u++ {
		for i := 0; i < w.Items(); i++ {
			if v := w.At(u, i); v != 0 {
				nw.MustSet(u, i, v)
			}
		}
	}
	for _, c := range cells {
		if c.Delete {
			if err := nw.Delete(c.Consumer, c.Item); err != nil {
				t.Fatalf("Delete(%d,%d): %v", c.Consumer, c.Item, err)
			}
		} else {
			nw.MustSet(c.Consumer, c.Item, c.Value)
		}
	}
	return nw
}

// mustEqualMatrices asserts two matrices agree cell for cell, in postings, and
// in their aggregates. Delta application is exact (values are moved, not
// recomputed), so equality is bitwise except for the float-summed aggregates.
func mustEqualMatrices(t *testing.T, got, want *Matrix) {
	t.Helper()
	if got.Consumers() != want.Consumers() || got.Items() != want.Items() {
		t.Fatalf("dimensions %d×%d, want %d×%d", got.Consumers(), got.Items(), want.Consumers(), want.Items())
	}
	for u := 0; u < want.Consumers(); u++ {
		for i := 0; i < want.Items(); i++ {
			if got.At(u, i) != want.At(u, i) {
				t.Fatalf("cell (%d,%d) = %g, want %g", u, i, got.At(u, i), want.At(u, i))
			}
		}
	}
	for i := 0; i < want.Items(); i++ {
		g, w := got.Postings(i), want.Postings(i)
		if len(g) != len(w) {
			t.Fatalf("item %d postings len %d, want %d", i, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("item %d posting %d = %+v, want %+v", i, j, g[j], w[j])
			}
		}
		if math.Abs(got.ItemTotal(i)-want.ItemTotal(i)) > 1e-9 {
			t.Fatalf("item %d total %g, want %g", i, got.ItemTotal(i), want.ItemTotal(i))
		}
	}
	if math.Abs(got.Total()-want.Total()) > 1e-9 {
		t.Fatalf("total %g, want %g", got.Total(), want.Total())
	}
	if got.Entries() != want.Entries() {
		t.Fatalf("entries %d, want %d", got.Entries(), want.Entries())
	}
}

// mustEqualShards asserts two shards produce identical stripes, offsets
// included, so delta-patched stripes are layout-identical to a rebuild.
func mustEqualShards(t *testing.T, got, want *Shard) {
	t.Helper()
	if got.Stripes() != want.Stripes() || got.StripeSize() != want.StripeSize() {
		t.Fatalf("shard layout %d stripes × %d, want %d × %d", got.Stripes(), got.StripeSize(), want.Stripes(), want.StripeSize())
	}
	for s := 0; s < want.Stripes(); s++ {
		gs, ws := got.Stripe(s), want.Stripe(s)
		glo, ghi := gs.Bounds()
		wlo, whi := ws.Bounds()
		if glo != wlo || ghi != whi {
			t.Fatalf("stripe %d bounds [%d,%d), want [%d,%d)", s, glo, ghi, wlo, whi)
		}
		if len(gs.offs) != len(ws.offs) {
			t.Fatalf("stripe %d offs len %d, want %d", s, len(gs.offs), len(ws.offs))
		}
		for i := range ws.offs {
			if gs.offs[i] != ws.offs[i] {
				t.Fatalf("stripe %d offs[%d] = %d, want %d", s, i, gs.offs[i], ws.offs[i])
			}
		}
		if len(gs.ids) != len(ws.ids) {
			t.Fatalf("stripe %d ids len %d, want %d", s, len(gs.ids), len(ws.ids))
		}
		for j := range ws.ids {
			if gs.ids[j] != ws.ids[j] || gs.vals[j] != ws.vals[j] {
				t.Fatalf("stripe %d entry %d = (%d,%g), want (%d,%g)", s, j, gs.ids[j], gs.vals[j], ws.ids[j], ws.vals[j])
			}
		}
	}
}

// TestWithDeltaMatchesRebuild drives seeded random delta sequences through
// WithDelta / Shard.ApplyDelta / SpanStore.ApplyDelta and asserts each stage
// matches a from-scratch rebuild of the mutated matrix, layout included.
func TestWithDeltaMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m, n := 40+rng.Intn(40), 5+rng.Intn(10)
			w := MustNew(m, n)
			for k := 0; k < m*n/3; k++ {
				w.MustSet(rng.Intn(m), rng.Intn(n), math.Round(rng.Float64()*1000)/10)
			}
			stripeSize := 1 + rng.Intn(16)
			cur, sh := w, mustShard(t, w, stripeSize)
			// Span replicas covering the whole shard in two spans.
			cut := sh.Stripes() / 2
			sp1, err := sh.Span(0, cut).Store()
			if err != nil {
				t.Fatal(err)
			}
			sp2, err := sh.Span(cut, sh.Stripes()).Store()
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 6; round++ {
				cells := randDelta(rng, cur, 1+rng.Intn(20))
				want := applyRebuild(t, cur, cells)
				next, err := cur.WithDelta(cells)
				if err != nil {
					t.Fatalf("round %d WithDelta: %v", round, err)
				}
				mustEqualMatrices(t, next, want)
				if next.Version() != cur.Version()+1 {
					t.Fatalf("round %d version %d, want %d", round, next.Version(), cur.Version()+1)
				}
				nsh, err := sh.ApplyDelta(next, cells)
				if err != nil {
					t.Fatalf("round %d Shard.ApplyDelta: %v", round, err)
				}
				mustEqualShards(t, nsh, mustShard(t, next, stripeSize))
				// Patch the span replicas with their span-scoped cut of the
				// delta and compare against spans of the rebuilt shard.
				for si, sp := range []*SpanStore{sp1, sp2} {
					lo, hi := sp.Bounds()
					var cut []Cell
					for _, c := range cells {
						if c.Consumer >= lo && c.Consumer < hi {
							cut = append(cut, c)
						}
					}
					nsp, err := sp.ApplyDelta(cut, next.Version())
					if err != nil {
						t.Fatalf("round %d span %d ApplyDelta: %v", round, si, err)
					}
					s0, s1 := sp.StripeRange()
					doc := nsh.Span(s0, s1)
					wantSp, err := doc.Store()
					if err != nil {
						t.Fatal(err)
					}
					if nsp.Entries() != wantSp.Entries() {
						t.Fatalf("round %d span %d entries %d, want %d", round, si, nsp.Entries(), wantSp.Entries())
					}
					for k := range wantSp.stripes {
						g, w := &nsp.stripes[k], &wantSp.stripes[k]
						for i := range w.offs {
							if g.offs[i] != w.offs[i] {
								t.Fatalf("round %d span %d stripe %d offs[%d] = %d, want %d", round, si, k, i, g.offs[i], w.offs[i])
							}
						}
						for j := range w.ids {
							if g.ids[j] != w.ids[j] || g.vals[j] != w.vals[j] {
								t.Fatalf("round %d span %d stripe %d entry %d mismatch", round, si, k, j)
							}
						}
					}
					if si == 0 {
						sp1 = nsp
					} else {
						sp2 = nsp
					}
				}
				cur, sh = next, nsh
			}
		})
	}
}

// TestDeltaValidation asserts a delta is rejected whole — receiver untouched —
// on any out-of-range coordinate or invalid value.
func TestDeltaValidation(t *testing.T) {
	w := MustNew(4, 3)
	w.MustSet(1, 1, 5)
	bad := [][]Cell{
		{{Consumer: -1, Item: 0, Value: 1}},
		{{Consumer: 0, Item: 3, Value: 1}},
		{{Consumer: 4, Item: 0, Value: 1}},
		{{Consumer: 0, Item: 0, Value: -1}},
		{{Consumer: 0, Item: 0, Value: math.NaN()}},
		{{Consumer: 0, Item: 0, Value: math.Inf(1)}},
		{{Consumer: 0, Item: 0, Value: 2, Delete: true}},
		{{Consumer: 0, Item: 0, Value: 1}, {Consumer: 9, Item: 0, Value: 1}},
	}
	for k, cells := range bad {
		if _, err := w.WithDelta(cells); err == nil {
			t.Fatalf("case %d: WithDelta accepted invalid delta %+v", k, cells)
		}
	}
	if w.Version() != 1 || w.At(0, 0) != 0 {
		t.Fatalf("receiver mutated by rejected delta: version %d, At(0,0)=%g", w.Version(), w.At(0, 0))
	}
	sh := mustShard(t, w, 2)
	if _, err := sh.ApplyDelta(w, []Cell{{Consumer: 9, Item: 0, Value: 1}}); err == nil {
		t.Fatal("Shard.ApplyDelta accepted out-of-range cell")
	}
	sp, err := sh.Span(0, 1).Store()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.ApplyDelta([]Cell{{Consumer: 3, Item: 0, Value: 1}}, 7); err == nil {
		t.Fatal("SpanStore.ApplyDelta accepted cell outside span bounds")
	}
}

// TestDeltaCopyOnWrite asserts WithDelta leaves the parent snapshot intact
// and that mutating either matrix afterwards never writes through shared
// backing arrays.
func TestDeltaCopyOnWrite(t *testing.T) {
	w := MustNew(3, 2)
	w.MustSet(0, 0, 1)
	w.MustSet(1, 0, 2)
	w.MustSet(2, 1, 3)
	nw, err := w.WithDelta([]Cell{{Consumer: 0, Item: 0, Value: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if w.At(0, 0) != 1 || nw.At(0, 0) != 9 {
		t.Fatalf("parent/child cells %g/%g, want 1/9", w.At(0, 0), nw.At(0, 0))
	}
	// Mutating the child must not leak into the parent through the shared
	// untouched row (consumer 1) or posting list (item 1).
	nw.MustSet(1, 0, 7)
	nw.MustSet(2, 1, 8)
	if w.At(1, 0) != 2 || w.At(2, 1) != 3 {
		t.Fatalf("parent mutated through shared arrays: %g, %g", w.At(1, 0), w.At(2, 1))
	}
	if p := w.Postings(1); len(p) != 1 || p[0].Value != 3 {
		t.Fatalf("parent posting list mutated: %+v", p)
	}
	// And mutating the parent must not leak into the child.
	w.MustSet(1, 0, 6)
	if nw.At(1, 0) != 7 {
		t.Fatalf("child mutated through shared row: %g", nw.At(1, 0))
	}
}

// TestDeleteTombstone is the regression test for single-cell deletes: a
// deleted cell must vanish from every read path — At, postings, BundleVector,
// UnionVectors, shard and span stores — and never resurface.
func TestDeleteTombstone(t *testing.T) {
	w := MustNew(4, 3)
	w.MustSet(0, 0, 10)
	w.MustSet(1, 0, 20)
	w.MustSet(1, 1, 30)
	w.MustSet(2, 0, 40)
	v0 := w.Version()
	if err := w.Delete(1, 0); err != nil {
		t.Fatal(err)
	}
	if w.Version() != v0+1 {
		t.Fatalf("version %d after delete, want %d", w.Version(), v0+1)
	}
	if err := w.Delete(1, 0); err != nil {
		t.Fatal(err)
	}
	if w.Version() != v0+1 {
		t.Fatal("deleting an absent cell bumped the version")
	}
	if w.At(1, 0) != 0 {
		t.Fatalf("At(1,0) = %g after delete", w.At(1, 0))
	}
	for _, e := range w.Postings(0) {
		if e.Consumer == 1 {
			t.Fatalf("deleted cell still in postings: %+v", e)
		}
	}
	if w.ItemTotal(0) != 50 || w.Total() != 80 {
		t.Fatalf("aggregates %g/%g after delete, want 50/80", w.ItemTotal(0), w.Total())
	}
	ids, _ := w.BundleVector([]int{0, 1}, 0, nil, nil)
	for _, u := range ids {
		if u == 1 {
			// Consumer 1 still holds item 1, so presence is fine — but the
			// vector value must exclude the deleted item-0 cell.
			if v := w.BundleWTP(1, []int{0, 1}, 0); v != 30 {
				t.Fatalf("bundle WTP %g for consumer 1, want 30", v)
			}
		}
	}
	aIDs, aVals := w.BundleVector([]int{0}, 0, nil, nil)
	bIDs, bVals := w.BundleVector([]int{1}, 0, nil, nil)
	uIDs, uVals := UnionVectors(aIDs, aVals, 1, bIDs, bVals, 1, nil, nil)
	for k, u := range uIDs {
		if u == 1 && uVals[k] != 30 {
			t.Fatalf("union resurfaces deleted cell: consumer 1 = %g, want 30", uVals[k])
		}
	}
	// The shard and a serialized span of it must agree: consumer 1 absent
	// from item 0's segment everywhere.
	sh := mustShard(t, w, 2)
	st := sh.Stripe(0)
	sids, _ := st.Item(0)
	for _, id := range sids {
		if id == 1 {
			t.Fatal("deleted cell present in shard stripe")
		}
	}
	sp, err := sh.Span(0, sh.Stripes()).Store()
	if err != nil {
		t.Fatal(err)
	}
	spIDs, _ := sp.BundleVector([]int{0}, 0, nil, nil)
	for _, id := range spIDs {
		if id == 1 {
			t.Fatal("deleted cell present in span store")
		}
	}
}
