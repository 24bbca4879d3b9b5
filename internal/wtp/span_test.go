package wtp

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
)

// randomSpanMatrix builds a deterministic random sparse matrix for the span
// equivalence tests.
func randomSpanMatrix(t *testing.T, m, n int, density float64, seed int64) *Matrix {
	t.Helper()
	w := MustNew(m, n)
	rng := rand.New(rand.NewSource(seed))
	for u := 0; u < m; u++ {
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				w.MustSet(u, i, 1+rng.Float64()*20)
			}
		}
	}
	return w
}

// spanCuts partitions [0, stripes) into k contiguous spans the same way the
// cluster coordinator does.
func spanCuts(stripes, k int) [][2]int {
	if k > stripes {
		k = stripes
	}
	if k < 1 {
		k = 1
	}
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		s0 := i * stripes / k
		s1 := (i + 1) * stripes / k
		if s1 > s0 {
			out = append(out, [2]int{s0, s1})
		}
	}
	return out
}

// TestSpanBundleVectorEquivalence: per-span BundleVector results,
// concatenated in span order, must equal the shard's single-machine
// reduction exactly — including after a JSON round trip of the span docs.
func TestSpanBundleVectorEquivalence(t *testing.T) {
	w := randomSpanMatrix(t, 157, 23, 0.2, 1)
	for _, stripeSize := range []int{7, 32, 200} {
		sh := mustShard(t, w, stripeSize)
		for _, spans := range []int{1, 2, 3, 5} {
			stores := buildStores(t, sh, spans)
			for trial := 0; trial < 20; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)))
				items := randItems(rng, w.Items())
				theta := []float64{0, -0.2, 0.3}[trial%3]
				wantIDs, wantVals := sh.BundleVector(items, theta, nil, nil)
				var gotIDs []int
				var gotVals []float64
				for _, sp := range stores {
					ids, vals := sp.BundleVector(items, theta, nil, nil)
					gotIDs = append(gotIDs, ids...)
					gotVals = append(gotVals, vals...)
				}
				if !equalInts(gotIDs, wantIDs) {
					t.Fatalf("stripe %d spans %d: ids mismatch for items %v", stripeSize, spans, items)
				}
				if !equalFloats(gotVals, wantVals) {
					t.Fatalf("stripe %d spans %d: vals mismatch for items %v", stripeSize, spans, items)
				}
			}
		}
	}
}

// TestSpanDocValidation: corrupt documents must be rejected, not panic.
func TestSpanDocValidation(t *testing.T) {
	w := randomSpanMatrix(t, 40, 5, 0.3, 3)
	sh := mustShard(t, w, 16)
	good := sh.Span(0, sh.Stripes())
	if _, err := good.Store(); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
	cases := map[string]func(d *SpanDoc){
		"bad stripe size": func(d *SpanDoc) { d.StripeSize = 0 },
		"bad range":       func(d *SpanDoc) { d.End = d.Start - 1 },
		"offs length":     func(d *SpanDoc) { d.Offs = d.Offs[:len(d.Offs)-1] },
		"ids/vals skew":   func(d *SpanDoc) { d.Vals = d.Vals[:len(d.Vals)-1] },
		"consumer range":  func(d *SpanDoc) { d.IDs[0] = int32(d.Consumers + 5) },
		"negative wtp":    func(d *SpanDoc) { d.Vals[0] = -1 },
		// 4 stripes × 2^62 offsets wraps to 0, the length of an empty Offs.
		"overflowing layout": func(d *SpanDoc) {
			d.Items, d.Start, d.End = 1<<62-1, 0, 4
			d.Offs, d.IDs, d.Vals = nil, nil, nil
		},
	}
	for name, corrupt := range cases {
		d := sh.Span(0, sh.Stripes())
		corrupt(d)
		if _, err := d.Store(); err == nil {
			t.Errorf("%s: corrupt doc accepted", name)
		}
	}
}

// TestSpanStoreMetadata checks the introspection a worker's health report
// exposes.
func TestSpanStoreMetadata(t *testing.T) {
	w := randomSpanMatrix(t, 100, 8, 0.3, 4)
	sh := mustShard(t, w, 32)
	d := sh.Span(1, 3)
	sp, err := d.Store()
	if err != nil {
		t.Fatal(err)
	}
	if v := sp.Version(); v != w.Version() {
		t.Errorf("version = %d, want %d", v, w.Version())
	}
	if lo, hi := sp.Bounds(); lo != 32 || hi != 96 {
		t.Errorf("bounds = [%d,%d), want [32,96)", lo, hi)
	}
	if s0, s1 := sp.StripeRange(); s0 != 1 || s1 != 3 {
		t.Errorf("stripe range = [%d,%d), want [1,3)", s0, s1)
	}
	var want int
	for s := 1; s < 3; s++ {
		want += sh.Stripe(s).Entries()
	}
	if sp.Entries() != want {
		t.Errorf("entries = %d, want %d", sp.Entries(), want)
	}
	if sp.Items() != w.Items() {
		t.Errorf("items = %d, want %d", sp.Items(), w.Items())
	}
}

// buildStores serializes the shard into spans wire docs, round-trips them
// through JSON, and rebuilds the stores — the worker ingestion path.
func buildStores(t *testing.T, sh *Shard, spans int) []*SpanStore {
	t.Helper()
	var out []*SpanStore
	for _, cut := range spanCuts(sh.Stripes(), spans) {
		doc := sh.Span(cut[0], cut[1])
		buf, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var rt SpanDoc
		if err := json.Unmarshal(buf, &rt); err != nil {
			t.Fatal(err)
		}
		sp, err := rt.Store()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sp)
	}
	return out
}

func randItems(rng *rand.Rand, n int) []int {
	k := 1 + rng.Intn(4)
	seen := map[int]bool{}
	var items []int
	for len(items) < k {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			items = append(items, i)
		}
	}
	sort.Ints(items)
	return items
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
