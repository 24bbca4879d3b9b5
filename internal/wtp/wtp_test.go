package wtp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 5); err == nil {
		t.Error("expected error for negative consumers")
	}
	if _, err := New(5, -1); err == nil {
		t.Error("expected error for negative items")
	}
	w, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Consumers() != 3 || w.Items() != 2 {
		t.Errorf("dims = %d×%d, want 3×2", w.Consumers(), w.Items())
	}
}

func TestSetAtTotal(t *testing.T) {
	w := MustNew(3, 2)
	w.MustSet(0, 0, 12)
	w.MustSet(1, 0, 8)
	w.MustSet(2, 1, 11)
	if got := w.At(0, 0); got != 12 {
		t.Errorf("At(0,0) = %g, want 12", got)
	}
	if got := w.At(0, 1); got != 0 {
		t.Errorf("At(0,1) = %g, want 0", got)
	}
	if got := w.Total(); got != 31 {
		t.Errorf("Total() = %g, want 31", got)
	}
	if got := w.ItemTotal(0); got != 20 {
		t.Errorf("ItemTotal(0) = %g, want 20", got)
	}
	// Overwrite keeps totals consistent.
	w.MustSet(0, 0, 2)
	if got := w.Total(); got != 21 {
		t.Errorf("Total() = %g after overwrite, want 21", got)
	}
	// Setting to zero removes the posting.
	w.MustSet(0, 0, 0)
	if got := len(w.Postings(0)); got != 1 {
		t.Errorf("postings len = %d after zeroing, want 1", got)
	}
}

func TestSetErrors(t *testing.T) {
	w := MustNew(2, 2)
	if err := w.Set(2, 0, 1); err == nil {
		t.Error("expected error for consumer out of range")
	}
	if err := w.Set(0, 2, 1); err == nil {
		t.Error("expected error for item out of range")
	}
	if err := w.Set(0, 0, -1); err == nil {
		t.Error("expected error for negative WTP")
	}
}

func TestPostingsSortedAnyInsertOrder(t *testing.T) {
	w := MustNew(10, 1)
	for _, u := range []int{5, 1, 9, 3, 7, 0} {
		w.MustSet(u, 0, float64(u+1))
	}
	p := w.Postings(0)
	for i := 1; i < len(p); i++ {
		if p[i-1].Consumer >= p[i].Consumer {
			t.Fatalf("postings unsorted: %v", p)
		}
	}
	if len(p) != 6 {
		t.Fatalf("postings len = %d, want 6", len(p))
	}
}

func TestBundleWTP(t *testing.T) {
	w := MustNew(1, 3)
	w.MustSet(0, 0, 10)
	w.MustSet(0, 1, 6)
	cases := []struct {
		items []int
		theta float64
		want  float64
	}{
		{[]int{0}, 0, 10},
		{[]int{0, 1}, 0, 16},
		{[]int{0, 1}, -0.05, 15.2},
		{[]int{0, 1}, 0.25, 20},
		{[]int{0, 1, 2}, 0, 16}, // item 2 contributes nothing
		{[]int{2}, 0, 0},
	}
	for _, c := range cases {
		if got := w.BundleWTP(0, c.items, c.theta); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("BundleWTP(%v, θ=%g) = %g, want %g", c.items, c.theta, got, c.want)
		}
	}
}

func TestBundleVectorSingle(t *testing.T) {
	w := MustNew(5, 2)
	w.MustSet(1, 0, 3)
	w.MustSet(4, 0, 7)
	ids, vals := w.BundleVector([]int{0}, 0, nil, nil)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 4 {
		t.Fatalf("ids = %v, want [1 4]", ids)
	}
	if vals[0] != 3 || vals[1] != 7 {
		t.Fatalf("vals = %v, want [3 7]", vals)
	}
}

func TestBundleVectorMerge(t *testing.T) {
	w := MustNew(4, 3)
	w.MustSet(0, 0, 5)
	w.MustSet(1, 0, 2)
	w.MustSet(1, 1, 4)
	w.MustSet(3, 1, 6)
	ids, vals := w.BundleVector([]int{0, 1}, 0, nil, nil)
	wantIDs := []int{0, 1, 3}
	wantVals := []float64{5, 6, 6}
	if len(ids) != 3 {
		t.Fatalf("ids = %v, want %v", ids, wantIDs)
	}
	for i := range wantIDs {
		if ids[i] != wantIDs[i] || math.Abs(vals[i]-wantVals[i]) > 1e-12 {
			t.Fatalf("vector = (%v, %v), want (%v, %v)", ids, vals, wantIDs, wantVals)
		}
	}
	// θ scales the merged sums.
	_, vals = w.BundleVector([]int{0, 1}, 0.5, nil, nil)
	if math.Abs(vals[1]-9) > 1e-12 {
		t.Fatalf("θ=0.5 vals = %v, want consumer 1 at 9", vals)
	}
}

func TestBundleVectorReuse(t *testing.T) {
	w := MustNew(3, 2)
	w.MustSet(0, 0, 5)
	ids, vals := w.BundleVector([]int{0}, 0, nil, nil)
	ids2, vals2 := w.BundleVector([]int{1}, 0, ids, vals)
	if len(ids2) != 0 || len(vals2) != 0 {
		t.Fatalf("reused vector should be empty, got %v %v", ids2, vals2)
	}
}

func TestCommonInterest(t *testing.T) {
	w := MustNew(4, 3)
	w.MustSet(0, 0, 1)
	w.MustSet(1, 0, 1)
	w.MustSet(1, 1, 1)
	w.MustSet(2, 2, 1)
	if !w.CommonInterest(0, 1) {
		t.Error("items 0 and 1 share consumer 1")
	}
	if w.CommonInterest(0, 2) {
		t.Error("items 0 and 2 share no consumer")
	}
}

func TestFromRatings(t *testing.T) {
	ratings := []Rating{
		{Consumer: 0, Item: 0, Stars: 5},
		{Consumer: 1, Item: 0, Stars: 4},
		{Consumer: 1, Item: 1, Stars: 1},
	}
	w, err := FromRatings(2, 2, ratings, []float64{10, 20}, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	// 5 stars → 5/5·1.25·10 = 12.50; 4 stars → 10; 1 star on $20 → 5.
	if got := w.At(0, 0); math.Abs(got-12.5) > 1e-12 {
		t.Errorf("At(0,0) = %g, want 12.5", got)
	}
	if got := w.At(1, 0); math.Abs(got-10) > 1e-12 {
		t.Errorf("At(1,0) = %g, want 10", got)
	}
	if got := w.At(1, 1); math.Abs(got-5) > 1e-12 {
		t.Errorf("At(1,1) = %g, want 5", got)
	}
}

func TestFromRatingsErrors(t *testing.T) {
	ok := []Rating{{Consumer: 0, Item: 0, Stars: 5}}
	if _, err := FromRatings(1, 1, ok, []float64{10}, 0.5); err == nil {
		t.Error("expected error for λ < 1")
	}
	if _, err := FromRatings(1, 1, ok, []float64{10, 20}, 1.25); err == nil {
		t.Error("expected error for price count mismatch")
	}
	if _, err := FromRatings(1, 1, []Rating{{0, 0, 6}}, []float64{10}, 1.25); err == nil {
		t.Error("expected error for star out of range")
	}
	if _, err := FromRatings(1, 1, []Rating{{0, 5, 3}}, []float64{10}, 1.25); err == nil {
		t.Error("expected error for item out of range")
	}
	if _, err := FromRatings(1, 1, ok, []float64{-10}, 1.25); err == nil {
		t.Error("expected error for negative price")
	}
}

// TestQuickBundleVectorMatchesDense cross-checks the postings against a
// test-local dense shadow filled by the same random writes: At, BundleWTP,
// BundleVector and the totals must all read the shadow's values.
func TestQuickBundleVectorMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 2+rng.Intn(20), 2+rng.Intn(6)
		w, d := MustNew(m, n), newShadow(m, n)
		for u := 0; u < m; u++ {
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.4 {
					d[u][i] = rng.Float64() * 20
					w.MustSet(u, i, d[u][i])
				}
			}
		}
		items := []int{}
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.6 {
				items = append(items, i)
			}
		}
		theta := rng.Float64()*0.4 - 0.2
		if err := checkShadow(w, d); err != nil {
			t.Log(err)
			return false
		}
		if err := checkBundleShadow(w, d, items, theta); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTotalsConsistent checks Total, every ItemTotal and Entries
// against a test-local dense shadow under random mutation sequences
// including overwrites and zeroing.
func TestQuickTotalsConsistent(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w, d := MustNew(8, 5), newShadow(8, 5)
		for k := 0; k < int(ops); k++ {
			v := rng.Float64() * 10
			if rng.Float64() < 0.2 {
				v = 0
			}
			u, i := rng.Intn(8), rng.Intn(5)
			w.MustSet(u, i, v)
			d[u][i] = v
		}
		if err := checkShadow(w, d); err != nil {
			t.Log(err)
			return false
		}
		if err := checkBundleShadow(w, d, []int{0, 2, 4}, 0); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetRejectsNaNAndInf(t *testing.T) {
	w := MustNew(1, 1)
	if err := w.Set(0, 0, math.NaN()); err == nil {
		t.Error("NaN WTP should be rejected")
	}
	if err := w.Set(0, 0, math.Inf(1)); err == nil {
		t.Error("+Inf WTP should be rejected")
	}
}
