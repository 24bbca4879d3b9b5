package wtp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// mustShard shards w, failing the test on an error.
func mustShard(t testing.TB, w *Matrix, stripeSize int) *Shard {
	t.Helper()
	sh, err := w.Shard(stripeSize)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// stripeSizes sweeps degenerate (1 consumer per stripe), misaligned, and
// single-stripe layouts.
func stripeSizes(m int) []int {
	return []int{1, 3, 7, m/2 + 1, m, m + 100}
}

// TestShardBundleVectorMatchesMatrix is the striped-storage equivalence
// property: a Shard's per-stripe columnar aggregation of any bundle equals
// the Matrix's flat postings merge within 1e-9, for every stripe size.
func TestShardBundleVectorMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	thetas := []float64{-0.3, 0, 0.25}
	for trial := 0; trial < 40; trial++ {
		m := 5 + rng.Intn(60)
		n := 3 + rng.Intn(12)
		w := randomMatrix(t, rng, m, n, 0.05+0.8*rng.Float64())
		k := 1 + rng.Intn(n)
		items := append([]int(nil), rng.Perm(n)[:k]...)
		sortInts(items)
		theta := thetas[trial%len(thetas)]
		wantIDs, wantVals := w.BundleVector(items, theta, nil, nil)
		for _, size := range stripeSizes(m) {
			sh := mustShard(t, w, size)
			gotIDs, gotVals := sh.BundleVector(items, theta, nil, nil)
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("stripe=%d items=%v θ=%g: %d consumers, reference %d", size, items, theta, len(gotIDs), len(wantIDs))
			}
			for j := range wantIDs {
				if gotIDs[j] != wantIDs[j] {
					t.Fatalf("stripe=%d items=%v: consumer[%d] = %d, reference %d", size, items, j, gotIDs[j], wantIDs[j])
				}
				if diff := math.Abs(gotVals[j] - wantVals[j]); diff > 1e-9 {
					t.Fatalf("stripe=%d items=%v: val[%d] = %.15g, reference %.15g (diff %g)", size, items, j, gotVals[j], wantVals[j], diff)
				}
			}
		}
	}
}

// TestStripeLayout checks the columnar segments tile the flat postings
// exactly: concatenating every stripe's segment for an item reproduces the
// item's posting list, and bounds partition the consumer axis.
func TestStripeLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := randomMatrix(t, rng, 37, 6, 0.5)
	sh := mustShard(t, w, 8)
	if sh.StripeSize() != 8 {
		t.Fatalf("StripeSize = %d, want 8", sh.StripeSize())
	}
	if got, want := sh.Stripes(), 5; got != want {
		t.Fatalf("Stripes() = %d, want %d (37 consumers / 8)", got, want)
	}
	prevHi := 0
	for s := 0; s < sh.Stripes(); s++ {
		lo, hi := sh.Stripe(s).Bounds()
		if lo != prevHi {
			t.Fatalf("stripe %d starts at %d, want %d", s, lo, prevHi)
		}
		if hi <= lo || hi > w.Consumers() {
			t.Fatalf("stripe %d bounds [%d,%d) invalid", s, lo, hi)
		}
		prevHi = hi
	}
	if prevHi != w.Consumers() {
		t.Fatalf("stripes end at %d, want %d", prevHi, w.Consumers())
	}
	for i := 0; i < w.Items(); i++ {
		var ids []int
		var vals []float64
		for s := 0; s < sh.Stripes(); s++ {
			st := sh.Stripe(s)
			lo, hi := st.Bounds()
			segIDs, segVals := st.Item(i)
			for k, id := range segIDs {
				if int(id) < lo || int(id) >= hi {
					t.Fatalf("stripe %d item %d holds consumer %d outside [%d,%d)", s, i, id, lo, hi)
				}
				ids = append(ids, int(id))
				vals = append(vals, segVals[k])
			}
		}
		want := w.Postings(i)
		if len(ids) != len(want) {
			t.Fatalf("item %d: %d striped entries, flat %d", i, len(ids), len(want))
		}
		for k, e := range want {
			if ids[k] != e.Consumer || vals[k] != e.Value {
				t.Fatalf("item %d entry %d: striped (%d,%g), flat (%d,%g)", i, k, ids[k], vals[k], e.Consumer, e.Value)
			}
		}
	}
}

// TestShardStaleness verifies a mutation after Shard construction is caught
// instead of silently serving stale postings.
func TestShardStaleness(t *testing.T) {
	w := MustNew(4, 2)
	w.MustSet(0, 0, 5)
	sh := mustShard(t, w, 2)
	sh.BundleVector([]int{0}, 0, nil, nil) // fresh: fine
	w.MustSet(1, 1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("stale shard access did not panic")
		}
	}()
	sh.BundleVector([]int{0}, 0, nil, nil)
}

// TestShardEmptyAndTiny covers degenerate shapes: zero consumers, zero
// items, and a matrix smaller than one stripe.
func TestShardEmptyAndTiny(t *testing.T) {
	empty := MustNew(0, 3)
	sh := mustShard(t, empty, 0)
	if sh.Stripes() != 1 {
		t.Fatalf("empty matrix: %d stripes, want 1", sh.Stripes())
	}
	ids, vals := sh.BundleVector([]int{0, 1}, 0, nil, nil)
	if len(ids) != 0 || len(vals) != 0 {
		t.Fatalf("empty matrix bundle vector = %v %v", ids, vals)
	}
	tiny := MustNew(2, 1)
	tiny.MustSet(1, 0, 7)
	sh = mustShard(t, tiny, 100)
	ids, vals = sh.BundleVector([]int{0}, 0, nil, nil)
	if len(ids) != 1 || ids[0] != 1 || vals[0] != 7 {
		t.Fatalf("tiny bundle vector = %v %v, want [1] [7]", ids, vals)
	}
}

// TestForEachStripe checks the parallel farming helper visits every stripe
// exactly once and the per-stripe writes stay disjoint.
func TestForEachStripe(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := randomMatrix(t, rng, 100, 4, 0.4)
	sh := mustShard(t, w, 9)
	for _, workers := range []int{1, 4, 32} {
		visits := make([]int, sh.Stripes())
		perConsumer := make([]float64, w.Consumers())
		var mu sync.Mutex // guards visits only; perConsumer is stripe-disjoint
		sh.ForEachStripe(workers, func(s int, st *Stripe) {
			mu.Lock()
			visits[s]++
			mu.Unlock()
			for i := 0; i < w.Items(); i++ {
				ids, vals := st.Item(i)
				for k, id := range ids {
					perConsumer[id] += vals[k]
				}
			}
		})
		for s, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: stripe %d visited %d times", workers, s, v)
			}
		}
		var got float64
		for _, v := range perConsumer {
			got += v
		}
		if diff := math.Abs(got - w.Total()); diff > 1e-6 {
			t.Fatalf("workers=%d: striped total %g, matrix total %g", workers, got, w.Total())
		}
	}
}
